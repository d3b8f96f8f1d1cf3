// ncast_ledger / ncast_ledger_traced: runs one repetition of one ledger
// workload and prints one JSON line with its timings, its seed-deterministic
// metrics and counts, the correctness verdict and the environment. The
// traced binary adds per-layer metrics and can write its span log.
//
//   ncast_ledger --workload NAME --seed N [--spans-out FILE]
//
// Exit status: 0 when the run's outputs passed every check, 1 when they did
// not, 2 on a usage error. ledger/run.py drives this binary; see README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "gf/dispatch.hpp"
#include "workloads.hpp"

namespace ledger {

SpanLog& spans() {
  static SpanLog log;
  return log;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace ledger

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "ncast_ledger: %s\nusage: ncast_ledger --workload NAME --seed N "
               "[--spans-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::RunOptions opt;
  bool have_seed = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--spans-out") {
        opt.spans_out = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric argument");
  }
  if (opt.workload.empty() || !have_seed) return usage("--workload and --seed are required");

  ledger::RepResult r;
  try {
    r = ledger::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ncast_ledger: %s\n", e.what());
    return 2;
  }

  ledger::JsonObject env;
  env.str("gf_tier", ncast::gf::tier_name(ncast::gf::active_tier()));
  env.count("nproc", std::thread::hardware_concurrency());
  env.str("build_type", LEDGER_BUILD_TYPE);
  env.count("obs", NCAST_OBS_ENABLED ? 1 : 0);
  env.count("shards", ledger::kShards);
  env.count("workers", ledger::kWorkers);
  env.count("traced", ledger::kTraced ? 1 : 0);

  std::string errors;
  for (const std::string& e : r.errors) {
    if (!errors.empty()) errors += ',';
    errors += ledger::json_string(e);
  }

  ledger::JsonObject out;
  out.str("workload", opt.workload);
  out.count("seed", opt.seed);
  out.raw("ok", r.ok ? "true" : "false");
  out.raw("errors", "[" + errors + "]");
  out.count("attempted", r.attempted);
  out.count("failed", r.failed);
  out.num("setup_s", r.setup_s);
  out.num("wall_s", r.wall_s);
  out.num("peak_rss_mib", ledger::peak_rss_mib());
  out.obj("metrics", r.metrics);
  out.obj("counts", r.counts);
  out.obj("layers", r.layers);
  out.obj("env", env);
  std::printf("%s\n", out.text().c_str());
  return r.ok ? 0 : 1;
}
