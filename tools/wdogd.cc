// wdogd: run the out-of-process supervisor scenario from the command line.
//
// Boots a system node (kvs by default) plus its in-process watchdog driver
// as one supervised "process", injects a disk hang that wedges both the main
// program and the checker path the driver uses to prove liveness, and lets
// wdogd walk the escalation ladder: warn → restart (respawn budget) →
// reboot-equivalent. Prints the reset-cause journal and detection latency,
// and writes BENCH_supervisor.json for the trend gate.
//
//   wdogd [--system kvs|minizk|minihdfs] [--all] [--quick]
//         [--out BENCH_supervisor.json]
//
// Exit: 0 when every trial escalated (the scenario is useless if the
// supervisor misses a wedged process), 1 otherwise, 2 on usage errors.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/eval/supervised.h"

namespace {

struct CliOptions {
  std::vector<wdg::System> systems = {wdg::System::kKvs};
  bool quick = false;
  std::string out = "BENCH_supervisor.json";
};

int Usage(std::FILE* stream) {
  std::fputs(
      "usage: wdogd [--system kvs|minizk|minihdfs] [--all] [--quick]\n"
      "             [--out FILE.json]\n",
      stream);
  return stream == stdout ? 0 : 2;
}

bool ParseSystem(const std::string& name, wdg::System* out) {
  if (name == "kvs") {
    *out = wdg::System::kKvs;
  } else if (name == "minizk") {
    *out = wdg::System::kMinizk;
  } else if (name == "minihdfs") {
    *out = wdg::System::kMinihdfs;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return Usage(stdout);
    } else if (arg == "--quick") {
      cli.quick = true;
    } else if (arg == "--all") {
      cli.systems = {wdg::System::kKvs, wdg::System::kMinizk,
                     wdg::System::kMinihdfs};
    } else if (arg == "--system" && i + 1 < argc) {
      wdg::System system;
      if (!ParseSystem(argv[++i], &system)) {
        std::fprintf(stderr, "wdogd: unknown system '%s'\n", argv[i]);
        return Usage(stderr);
      }
      cli.systems = {system};
    } else if (arg == "--out" && i + 1 < argc) {
      cli.out = argv[++i];
    } else {
      std::fprintf(stderr, "wdogd: unknown flag '%s'\n", arg.c_str());
      return Usage(stderr);
    }
  }

  bool all_escalated = true;
  std::string json = "{\n  \"configs\": [\n";
  for (size_t i = 0; i < cli.systems.size(); ++i) {
    wdg::SupervisedTrialOptions options;
    options.system = cli.systems[i];
    if (cli.quick) {
      // One restart is enough for a smoke signal; skip the budget walk.
      options.policy.max_respawns = 1;
      options.observe = wdg::Sec(2);
    }
    const char* name = wdg::SystemName(options.system);
    std::printf("== %s: injecting disk hang under wdogd supervision...\n", name);
    std::fflush(stdout);
    const wdg::TrialResult result = wdg::RunSupervisedTrial(options);

    const double latency_ms =
        static_cast<double>(result.supervisor_detection_latency) / 1e6;
    std::printf("   escalated:          %s\n", result.supervisor_escalated ? "yes" : "NO");
    std::printf("   detection latency:  %.1f ms\n", latency_ms);
    std::printf("   ladder:             %lld warn(s), %lld restart(s), %lld reboot(s)\n",
                static_cast<long long>(result.supervisor_warns),
                static_cast<long long>(result.supervisor_restarts),
                static_cast<long long>(result.supervisor_reboots));
    std::printf("   reset-cause journal:\n");
    for (const std::string& cause : result.reset_causes) {
      std::printf("     - %s\n", cause.c_str());
    }
    all_escalated = all_escalated && result.supervisor_escalated;

    json += wdg::StrFormat(
        "    {\"system\": \"%s\", \"detection_latency_ms\": %.3f, "
        "\"warns\": %lld, \"restarts\": %lld, \"reboots\": %lld}%s\n",
        name, latency_ms, static_cast<long long>(result.supervisor_warns),
        static_cast<long long>(result.supervisor_restarts),
        static_cast<long long>(result.supervisor_reboots),
        i + 1 < cli.systems.size() ? "," : "");
  }
  json += "  ]\n}\n";

  if (std::FILE* f = std::fopen(cli.out.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", cli.out.c_str());
  } else {
    std::fprintf(stderr, "wdogd: cannot write %s\n", cli.out.c_str());
    return 2;
  }

  if (!all_escalated) {
    std::fprintf(stderr, "wdogd: a wedged process was NOT escalated — supervisor broken\n");
    return 1;
  }
  return 0;
}
