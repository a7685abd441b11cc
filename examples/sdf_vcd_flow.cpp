// The file-based ASIC characterization flow, end to end — the exact
// pipeline of the paper's Fig. 2 with real files on disk:
//
//   netlist -> STA @ (V,T) -> SDF file -> back-annotated gate-level
//   simulation -> VCD file -> parse VCD -> per-cycle dynamic delays
//   -> feature/delay matrices ready for training.
//
// Everything the in-memory pipeline computes can be reproduced from
// the files alone; this example checks that property explicitly.
//
// Run:  ./sdf_vcd_flow
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "dta/dta.hpp"
#include "dta/vcd_extract.hpp"
#include "sdf/sdf.hpp"
#include "sim/vcd_dump.hpp"
#include "sta/sta.hpp"
#include "tevot/model.hpp"
#include "tevot/pipeline.hpp"
#include "util/text_io.hpp"
#include "vcd/vcd.hpp"

int main() {
  using namespace tevot;
  std::filesystem::create_directories("example_out");

  // RTL -> gate-level netlist (the FloPoCo + synthesis step).
  const netlist::Netlist nl = circuits::buildFu(circuits::FuKind::kIntAdd);
  std::printf("Netlist %s: %zu gates, %zu nets\n", nl.name().c_str(),
              nl.gateCount(), nl.netCount());

  const liberty::CellLibrary library =
      liberty::CellLibrary::defaultLibrary();
  const liberty::VtModel vt_model;

  // STA with V/T scaling -> one SDF file per corner.
  const liberty::Corner corners[] = {{0.81, 0.0}, {0.90, 50.0}};
  for (const liberty::Corner& corner : corners) {
    const liberty::CornerDelays delays =
        liberty::annotateCorner(nl, library, vt_model, corner);
    char path[128];
    std::snprintf(path, sizeof(path), "example_out/int_add_%.2fV_%.0fC.sdf",
                  corner.voltage, corner.temperature);
    sdf::writeSdfFile(path, nl, delays);
    std::printf("Wrote %s (critical path %.1f ps)\n", path,
                sta::criticalPathPs(nl, delays));
  }

  // Back-annotated simulation from the SDF file -> VCD file.
  const std::string sdf_path = "example_out/int_add_0.81V_0C.sdf";
  const liberty::CornerDelays annotated = sdf::parseSdfFile(sdf_path, nl);
  util::Rng rng(321);
  const dta::Workload workload =
      dta::randomWorkloadFor(circuits::FuKind::kIntAdd, 200, rng);
  std::vector<std::vector<std::uint8_t>> vectors;
  for (const dta::OperandPair& op : workload.ops) {
    vectors.push_back(circuits::encodeOperands(op.a, op.b));
  }
  sim::VcdDumpOptions options;
  options.window_ps = 20000.0;
  const std::string vcd_path = "example_out/int_add_0.81V_0C.vcd";
  {
    std::ofstream os(vcd_path);
    sim::dumpWorkloadVcd(os, nl, annotated, vectors, options);
  }
  std::printf("Wrote %s (%zu cycles)\n", vcd_path.c_str(),
              workload.ops.size() - 1);

  // Parse the VCD back and extract the per-cycle dynamic delays.
  const vcd::VcdData data =
      vcd::parseVcdString(util::readFile(vcd_path, "sdf_vcd_flow"));
  const std::vector<double> delays = dta::extractDelaysFromVcd(
      data, options.window_ps, workload.ops.size() - 1);

  // Cross-check against the in-memory DTA path.
  const dta::DtaTrace trace = dta::characterize(nl, annotated, workload);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < delays.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(delays[i] - trace.samples[i].delay_ps));
  }
  std::printf("File-based vs in-memory dynamic delays: max difference "
              "%.3f ps over %zu cycles (VCD timestamps are integer ps)\n",
              max_diff, delays.size());

  // The extracted delays become the training matrices of Eq. 3.
  const core::FeatureEncoder encoder(true);
  const ml::Dataset dataset = core::buildDelayDataset(
      {&trace, 1}, encoder);
  std::printf("Assembled feature matrix I (%zu x %zu) and delay matrix "
              "D (%zu)\n",
              dataset.size(), dataset.features(), dataset.y.size());
  return 0;
}
