// kea_bench: one end-to-end benchmark for KEA's tuning rounds and what-if
// serving. One process runs one workload:
//
//   kea_bench --workload <name> [--seed 7] [--seconds 20] [--trace 0|1]
//             [--scale full|smoke] [--out result.json] [--trace-file t.json]
//             [--work-dir .bench_run] [--git-sha SHA]
//
// It prints every metric by name, unit and sample count, then, as its last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}. An
// untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) runs the same schedule untraced and then traced, checks that
// both make the same decisions, and reports the per-layer metrics. The exit
// code is non-zero when a correctness check or any operation fails. See
// README.md.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench/kea_bench/harness.h"

namespace kea::bench {
namespace {

constexpr const char* kWorkloads[] = {"round_clean", "round_dirty",
                                      "round_durable", "serve_mix"};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool samples) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + Quote(m.name) + ": {\"value\": " +
           Number(m.value) + ", \"unit\": " + Quote(m.unit);
    if (samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "kea_bench: %s\n"
               "usage: kea_bench --workload "
               "<round_clean|round_dirty|round_durable|serve_mix>\n"
               "         [--seed N] [--seconds S] [--trace 0|1] "
               "[--scale full|smoke]\n"
               "         [--out PATH] [--trace-file PATH] [--work-dir DIR]\n"
               "         [--git-sha SHA]\n",
               error.c_str());
  return 2;
}

}  // namespace
}  // namespace kea::bench

int main(int argc, char** argv) {
  using namespace kea::bench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("unexpected argument " + key);
    key = key.substr(2);
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      args[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return Usage("missing value for --" + key);
    }
  }
  for (const auto& [key, value] : args) {
    static const char* kKnown[] = {"workload", "seed",       "seconds",
                                   "trace",    "scale",      "out",
                                   "trace-file", "work-dir", "git-sha"};
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    if (!known) return Usage("unknown flag --" + key);
  }

  auto value = [&args](const std::string& key, const std::string& fallback) {
    auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  };
  Options options;
  options.workload = value("workload", "");
  bool known_workload = false;
  for (const char* w : kWorkloads) known_workload |= options.workload == w;
  if (!known_workload) {
    return Usage("unknown workload '" + options.workload + "'");
  }
  try {
    if (args.count("seed")) options.seed = std::stoull(args["seed"]);
    if (args.count("seconds")) options.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    return Usage("--seed and --seconds take numbers");
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  const std::string trace = value("trace", "0");
  if (trace != "0" && trace != "1") return Usage("--trace takes 0 or 1");
  options.trace = trace == "1";
  const std::string scale = value("scale", "full");
  if (scale != "full" && scale != "smoke") {
    return Usage("--scale takes full or smoke");
  }
  options.smoke = scale == "smoke";
  options.work_dir = value("work-dir", options.work_dir);
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage("cannot create work dir " + options.work_dir);
  options.trace_file = value(
      "trace-file", options.work_dir + "/" + options.workload + ".trace.json");

  Result result = options.workload == "serve_mix" ? RunServeMix(options)
                                                  : RunRounds(options);
  // No workload expects an operation to fail, so one that does fails the run.
  result.Check(result.failed == 0, std::to_string(result.failed) + " of " +
                                       std::to_string(result.attempted) +
                                       " operations failed");
  if (!options.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    result.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
               "MB", 1);
  }

  for (const Metric& m : result.metrics) {
    std::printf("%-36s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const Metric& m : result.details) {
    std::printf("  %-34s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("round_digest %s\n", DigestHex(result.digest).c_str());
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = result.failures.empty();

  if (args.count("out")) {
    std::string json = "{\"workload\": " + Quote(options.workload) +
                       ", \"seed\": " + std::to_string(options.seed) +
                       ", \"seconds\": " + Number(options.seconds) +
                       ", \"trace\": " + (options.trace ? "1" : "0") +
                       ", \"scale\": " + Quote(scale) +
                       ", \"host\": {\"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"compiler\": " + Quote(__VERSION__) +
                       ", \"build_type\": " + Quote(KEA_BENCH_BUILD_TYPE) +
                       ", \"git_sha\": " + Quote(value("git-sha", "unknown")) +
                       "}" +
                       ", \"correct\": " + (correct ? "true" : "false") +
                       ", \"failures\": [";
    for (size_t i = 0; i < result.failures.size(); ++i) {
      json += (i ? ", " : "") + Quote(result.failures[i]);
    }
    json += "], \"attempted\": " + std::to_string(result.attempted) +
            ", \"failed\": " + std::to_string(result.failed) +
            ", \"round_digest\": " + Quote(DigestHex(result.digest)) +
            ", \"metrics\": " + MetricsJson(result.metrics, true) +
            ", \"details\": " + MetricsJson(result.details, true) + "}\n";
    std::ofstream out(args["out"], std::ios::trunc);
    out << json;
    if (!out) std::fprintf(stderr, "cannot write %s\n", args["out"].c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(result.metrics, false).c_str());
  return correct ? 0 : 1;
}
