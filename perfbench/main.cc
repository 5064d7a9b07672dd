// The benchmark binary: runs one workload and prints one JSON document
// with the run's provenance, its operation counts and every metric it
// measured. perfbench/run.py builds this binary and turns the document
// into the benchmark's result line.
//
//   perfbench --workload power|throughput|refresh --seed N --seconds S
//             --trace 0|1 --workdir DIR [--spans FILE] [--perturb CHECK]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace tpcds::perfbench {
namespace {

/// Timings from unoptimised or sanitised binaries are not comparable.
bool MeasurableBuild(std::string* why) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "sanitizer build";
  return false;
#else
  std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    *why = "build type '" + type + "'";
    return false;
  }
#ifndef NDEBUG
  *why = "assertions enabled (NDEBUG unset)";
  return false;
#endif
  return true;
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* ThreadBudget(const std::string& workload) {
  if (workload == "power") {
    return "1 client, intra-query parallelism nproc - 1 (the client thread "
           "drains morsels too)";
  }
  if (workload == "throughput") {
    return "4 streams on 4 service slots, parallelism 1";
  }
  return "1 maintenance thread + 3 reader sessions on 2 service slots, "
         "parallelism 1";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload power|throughput|refresh "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--spans FILE] [--perturb CHECK]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, workdir, spans_path, perturb;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else if (flag == "--perturb") {
      perturb = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workdir.empty() || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  RunResult (*run)(RunContext*) = workload == "power"        ? RunPower
                                  : workload == "throughput" ? RunThroughput
                                  : workload == "refresh"    ? RunRefresh
                                                             : nullptr;
  if (run == nullptr) return Usage();
  std::string why;
  if (!MeasurableBuild(&why)) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s\n", why.c_str());
    return 2;
  }

  RunContext ctx(trace == 1);
  ctx.seed = seed;
  ctx.seconds = seconds;
  ctx.threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ctx.workdir = workdir;
  ctx.perturb = perturb;
  std::filesystem::create_directories(workdir);

  RunResult result = run(&ctx);
  result.Set("failed_ratio",
             result.attempted > 0 ? static_cast<double>(result.failed) /
                                        static_cast<double>(result.attempted)
                                  : 1.0,
             "ratio");
  if (trace == 1 && !spans_path.empty() && !ctx.tracer.WriteJson(spans_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", spans_path.c_str());
  }

  std::string out = "{\"workload\": " + JsonString(workload);
  out += ", \"provenance\": {\"build_type\": " +
         JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"nproc\": " + std::to_string(ctx.threads);
  out += ", \"scale_factor\": " + JsonNumber(kScaleFactor);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"data_seed\": " + std::to_string(RunContext::kDataSeed);
  out += ", \"query_seed\": " + std::to_string(ctx.QuerySeed());
  out += ", \"thread_budget\": " + JsonString(ThreadBudget(workload));
  out += ", \"trace\": " + std::to_string(trace);
  out += ", \"perturbed_check\": " + JsonString(perturb) + "}";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"errors\": [";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(result.errors[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(metric.value) + ", \"unit\": " + JsonString(metric.unit) +
           "}";
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  return result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tpcds::perfbench

int main(int argc, char** argv) { return tpcds::perfbench::Main(argc, argv); }
