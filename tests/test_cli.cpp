// ftsp_cli end-to-end: argument-parsing robustness (malformed numbers
// and trailing value flags exit 2 with a usage message instead of
// aborting on an uncaught exception) and the device-targeted
// compile/query flow. Drives the real binary, whose path CMake injects
// as FTSP_CLI_PATH.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

namespace {

namespace fs = std::filesystem;

struct CliResult {
  int exit_code = -1;
  std::string output;  ///< Combined stdout + stderr.
};

CliResult run_cli(const std::string& args) {
  const std::string command = std::string(FTSP_CLI_PATH) + " " + args +
                              " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return {};
  }
  CliResult result;
  char chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), pipe)) > 0) {
    result.output.append(chunk, got);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ftsp-cli-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST(Cli, NumericGarbageIsAUsageErrorNotAnAbort) {
  const auto result = run_cli("sim Steane --shots abc");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--shots"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("usage:"), std::string::npos)
      << result.output;

  EXPECT_EQ(run_cli("sim Steane --shots -5").exit_code, 2);
  EXPECT_EQ(run_cli("rate Steane --p 0.01x").exit_code, 2);
  EXPECT_EQ(run_cli("rate Steane --seed 1e9").exit_code, 2);
}

TEST(Cli, TrailingValueFlagIsAUsageError) {
  const auto result = run_cli("sim Steane --shots");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("needs a value"), std::string::npos)
      << result.output;
  EXPECT_EQ(run_cli("rate Steane --p").exit_code, 2);
  EXPECT_EQ(run_cli("synth Steane --coupling").exit_code, 2);
}

TEST(Cli, SubcommandNumbersAreCheckedToo) {
  TempDir dir("store-args");
  const std::string store = dir.path.string();
  EXPECT_EQ(
      run_cli("store --store " + store + " --prune --max-cache-age-days x")
          .exit_code,
      2);
  EXPECT_EQ(run_cli("serve --store " + store + " --threads nope").exit_code,
            2);
  EXPECT_EQ(run_cli("compile Steane --store").exit_code, 2);

  // Typo'd flags are rejected, not silently ignored (which would
  // compile a differently-configured artifact with exit 0).
  const auto typo = run_cli("compile Steane --store " + store +
                            " --gadget_reach 2 --coupling linear");
  EXPECT_EQ(typo.exit_code, 2) << typo.output;
  EXPECT_NE(typo.output.find("unknown argument"), std::string::npos);
  EXPECT_EQ(run_cli("sim Steane --bogus").exit_code, 2);
}

TEST(Cli, UnknownCouplingIsAUsageError) {
  const auto result = run_cli("synth Steane --coupling torus");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--coupling"), std::string::npos);
}

TEST(Cli, ValidInvocationsStillSucceed) {
  const auto codes = run_cli("codes");
  EXPECT_EQ(codes.exit_code, 0) << codes.output;
  EXPECT_NE(codes.output.find("Steane"), std::string::npos);

  const auto sim = run_cli("sim Steane --p 0.02 --shots 512");
  EXPECT_EQ(sim.exit_code, 0) << sim.output;
  EXPECT_NE(sim.output.find("pL"), std::string::npos);
}

TEST(Cli, DeviceTargetedCompileAndQuery) {
  TempDir dir("coupling");
  const std::string store = dir.path.string();

  const auto all = run_cli("compile Steane --store " + store);
  EXPECT_EQ(all.exit_code, 0) << all.output;
  const auto linear =
      run_cli("compile Steane --store " + store + " --coupling linear");
  EXPECT_EQ(linear.exit_code, 0) << linear.output;
  EXPECT_NE(linear.output.find("coupling linear"), std::string::npos)
      << linear.output;

  // Two artifacts, distinct store keys.
  std::ifstream index(dir.path / "index.tsv");
  std::string line;
  std::size_t entries = 0;
  while (std::getline(index, line)) {
    entries += !line.empty();
  }
  EXPECT_EQ(entries, 2u);

  // --coupling retargets the query to the device-specific serving name.
  const auto info = run_cli("query --store " + store +
                            " --coupling linear "
                            "'{\"op\":\"info\",\"code\":\"Steane\"}'");
  EXPECT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("\"coupling\":\"linear\""), std::string::npos)
      << info.output;

  const auto plain = run_cli("query --store " + store +
                             " '{\"op\":\"info\",\"code\":\"Steane\"}'");
  EXPECT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_NE(plain.output.find("\"coupling\":\"all\""), std::string::npos)
      << plain.output;

  // A custom coupling-map file works end to end.
  const fs::path map_file = dir.path / "device.cmap";
  {
    std::ofstream out(map_file);
    out << "coupling: testbed\nsites: 7\nedges:\n";
    for (int q = 0; q + 1 < 7; ++q) {
      out << q << ' ' << (q + 1) << '\n';
    }
    out << "0 6\n";  // A ring, so it differs from the builtin linear map.
  }
  const auto custom = run_cli("compile Steane --store " + store +
                              " --coupling " + map_file.string());
  EXPECT_EQ(custom.exit_code, 0) << custom.output;
  const auto custom_info =
      run_cli("query --store " + store +
              " --coupling testbed "
              "'{\"op\":\"info\",\"code\":\"Steane\"}'");
  EXPECT_EQ(custom_info.exit_code, 0) << custom_info.output;
  EXPECT_NE(custom_info.output.find("\"coupling\":\"testbed\""),
            std::string::npos)
      << custom_info.output;

  // The same map *file* argument that compiled the artifact also
  // addresses it at query time (resolved to the map's declared name).
  const auto by_file =
      run_cli("query --store " + store + " --coupling " +
              map_file.string() + " '{\"op\":\"info\",\"code\":\"Steane\"}'");
  EXPECT_EQ(by_file.exit_code, 0) << by_file.output;
  EXPECT_NE(by_file.output.find("\"coupling\":\"testbed\""),
            std::string::npos)
      << by_file.output;

  // Malformed request JSON keeps the documented error envelope (exit 0)
  // even with --coupling present.
  const auto malformed =
      run_cli("query --store " + store + " --coupling linear '{bad'");
  EXPECT_EQ(malformed.exit_code, 0) << malformed.output;
  EXPECT_NE(malformed.output.find("\"ok\":false"), std::string::npos)
      << malformed.output;
}

TEST(Cli, StdinServingExitsNonZeroWhenOutputIsCutShort) {
  TempDir dir("stdin-cut");
  const std::string store = (dir.path / "store").string();
  const auto compiled = run_cli("compile Steane --store " + store);
  ASSERT_EQ(compiled.exit_code, 0) << compiled.output;

  const std::string requests = (dir.path / "requests.jsonl").string();
  std::ofstream(requests) << "{\"op\":\"codes\"}\n";
  const auto clean = run_cli("serve --store " + store + " < " + requests);
  EXPECT_EQ(clean.exit_code, 0) << clean.output;

  // A line over the 1 MiB bound makes the server drop the stream: the
  // answers after it are lost, which must not exit 0.
  std::ofstream(requests) << "{\"op\":\"codes\"}\n"
                          << std::string(std::size_t{2} << 20, 'x')
                          << "\n{\"op\":\"codes\"}\n";
  const auto cut = run_cli("serve --store " + store + " < " + requests);
  EXPECT_EQ(cut.exit_code, 1) << cut.output;
  EXPECT_NE(cut.output.find("output cut short"), std::string::npos)
      << cut.output;
}

TEST(Cli, SocketServingWritesTheAccessLogAndDrainsOnSigterm) {
  TempDir dir("socket");
  const std::string store = (dir.path / "store").string();
  const auto compiled = run_cli("compile Steane --store " + store);
  ASSERT_EQ(compiled.exit_code, 0) << compiled.output;

  const std::string socket_path = (dir.path / "serve.sock").string();
  const std::string access_log = (dir.path / "access.jsonl").string();
  const std::string server_log = (dir.path / "serve.log").string();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::freopen(server_log.c_str(), "w", stderr);
    ::execl(FTSP_CLI_PATH, FTSP_CLI_PATH, "serve", "--store", store.c_str(),
            "--socket", socket_path.c_str(), "--access-log",
            access_log.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }

  // Connect once the server has bound its socket.
  int fd = -1;
  for (int attempt = 0; attempt < 500 && fd < 0; ++attempt) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    socket_path.copy(address.sun_path, sizeof(address.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
      ::close(fd);
      fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_GE(fd, 0) << "could not connect to " << socket_path;
  std::string response;
  if (fd >= 0) {
    const std::string request = "{\"v\":2,\"op\":\"health\"}\n";
    EXPECT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    char chunk[4096];
    while (response.find('\n') == std::string::npos) {
      const auto got = ::read(fd, chunk, sizeof(chunk));
      if (got <= 0) {
        break;
      }
      response.append(chunk, static_cast<std::size_t>(got));
    }
    ::close(fd);
  }
  ::kill(pid, SIGTERM);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  std::ifstream log_in(server_log);
  const std::string log((std::istreambuf_iterator<char>(log_in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(response.find("\"status\":\"serving\""), std::string::npos)
      << response << log;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << log;
  EXPECT_NE(log.find("drained; exiting cleanly"), std::string::npos) << log;
  EXPECT_FALSE(fs::exists(socket_path)) << "socket file left behind";

  std::ifstream access_in(access_log);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(access_in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"op\":\"health\""), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 1u);
}

}  // namespace
