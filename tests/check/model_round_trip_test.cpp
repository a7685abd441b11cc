// Oracle 3 (model round-trip) as a ctest suite: forest-regressor
// serialize -> deserialize -> serialize byte-identity, bit-identical
// predictions after reload, and serial-vs-pooled forest-training
// determinism, over random small tasks. The forest regressor is the
// one learner any shipped model file carries.
#include "check/oracles.hpp"

#include <gtest/gtest.h>

#include "check/property.hpp"

namespace tevot::check {
namespace {

TEST(ModelRoundTripTest, AllLearnersRoundTripOverRandomTasks) {
  const PropertyResult result = forAllSeeds(10, checkModelRoundTrip);
  EXPECT_TRUE(result.ok) << result.report("model-round-trip");
}

}  // namespace
}  // namespace tevot::check
