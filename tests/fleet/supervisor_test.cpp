// fleet::Supervisor port announcements: a worker's "listening on
// 127.0.0.1:<port>" line is read as a whole port number in
// [1, 65535]; any other announcement takes the "worker never
// announced a port" error path instead of a port 0, 12 or 99999.
// The workers are /bin/sh scripts that print one line and sleep.
#include "fleet/supervisor.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace tevot::fleet {
namespace {

/// A fake tevot_serve that announces `port_text` and waits.
std::string fakeWorker(const std::string& port_text) {
  static int count = 0;
  const std::string path = ::testing::TempDir() + "/supervisor_test." +
                           std::to_string(::getpid()) + "." +
                           std::to_string(count++) + ".sh";
  {
    std::ofstream os(path, std::ios::trunc);
    os << "#!/bin/sh\necho 'tevot_serve listening on 127.0.0.1:"
       << port_text << "'\nexec sleep 30\n";
  }
  ::chmod(path.c_str(), 0755);
  return path;
}

util::Status startOne(const std::string& port_text, int* port) {
  SupervisorOptions options;
  options.serve_binary = fakeWorker(port_text);
  options.shards = 1;
  Supervisor supervisor(options);
  const util::Status status = supervisor.startAll();
  *port = supervisor.shardPort(0);
  supervisor.stopAll(0.0);
  std::remove(options.serve_binary.c_str());
  return status;
}

TEST(SupervisorTest, AnnouncedPortIsRead) {
  int port = 0;
  const util::Status status = startOne("4242", &port);
  EXPECT_TRUE(status.ok()) << status.toString();
  EXPECT_EQ(port, 4242);
}

TEST(SupervisorTest, GarbledAnnouncementIsNeverAPort) {
  for (const char* garbled :
       {"abc", "", "0", "65536", "99999", "12x", "-5", " 80", "80 ", "1e3",
        "4294967377"}) {
    int port = -2;
    const util::Status status = startOne(garbled, &port);
    EXPECT_EQ(status.code, util::StatusCode::kIoError) << "'" << garbled << "'";
    EXPECT_NE(status.message.find("never announced a port"),
              std::string::npos)
        << status.message;
    EXPECT_LE(port, 0) << "'" << garbled << "'";
  }
}

}  // namespace
}  // namespace tevot::fleet
