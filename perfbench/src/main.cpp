// perfbench: runs one benchmark workload with a seed, times the public calls
// it makes from outside, checks the outputs, and prints the metrics.
//
//   perfbench --workload fleet-steady|fleet-churn|offline --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//             [--git-sha SHA]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones (and writes the spans to --trace-out). The exit code is
// 0 when every correctness check passed, 1 when one failed (the result line
// is still printed, with every operation counted failed), and 2 without a
// result line for bad arguments or a build that must not be timed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.hpp"
#include "tensor/kernels.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE "OFF"
#endif

namespace {

using namespace perfbench;

/// Why this build must not report timings, or null when it may.
const char* build_refusal() {
#if !defined(NDEBUG)
  return "assertions are on (NDEBUG unset)";
#elif !defined(__OPTIMIZE__)
  return "the build is unoptimized";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the build is instrumented by a sanitizer";
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "the build is instrumented by a sanitizer";
#endif
#endif
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (!sanitize.empty() && sanitize != "OFF" && sanitize != "0")
    return "the library was configured with NS_SANITIZE";
  return nullptr;
#endif
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_host(const std::string& git_sha) {
  std::printf(
      "host: {\"cpu\": \"%s\", \"nproc\": %u, \"kernel_tier\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"ndebug\": %s, "
      "\"git_sha\": \"%s\"}\n",
      cpu_model().c_str(), std::thread::hardware_concurrency(),
      ns::kernel_tier_name(ns::kernel_dispatch_tier()), compiler().c_str(),
      PERFBENCH_BUILD_TYPE,
#if defined(NDEBUG)
      "true",
#else
      "false",
#endif
      git_sha.c_str());
}

void print_span_summary(const Tracer& tracer) {
  const std::vector<double> self = self_times(tracer.spans());
  std::map<std::string, std::pair<double, std::size_t>> by_name;
  for (std::size_t i = 0; i < self.size(); ++i) {
    auto& entry = by_name[tracer.spans()[i].name];
    entry.first += self[i];
    entry.second += tracer.spans()[i].calls;
  }
  std::vector<std::pair<std::string, std::pair<double, std::size_t>>> rows(
      by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.first > b.second.first;
  });
  std::printf("span self time (s), summed by name:\n");
  for (const auto& [name, entry] : rows)
    std::printf("  %-28s %12.6f  (%zu calls)\n", name.c_str(), entry.first,
                entry.second);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fleet-steady|fleet-churn|offline --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE] "
               "[--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string trace_out, git_sha = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || args.work_dir.empty())
    return usage("--seed, --seconds, --trace and --work-dir are required");
  RunResult (*run)(const Args&, Tracer&) = nullptr;
  if (args.workload == "fleet-steady") run = run_fleet_steady;
  if (args.workload == "fleet-churn") run = run_fleet_churn;
  if (args.workload == "offline") run = run_offline;
  if (run == nullptr)
    return usage(("unknown workload " + args.workload).c_str());
  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "perfbench: refusing to report timings: %s\n", why);
    return 2;
  }

  print_host(git_sha);
  std::filesystem::create_directories(args.work_dir);
  Tracer tracer(args.trace);
  RunResult result;
  try {
    result = run(args, tracer);
    std::filesystem::remove_all(args.work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& [name, metric] : result.metrics)
    result.check(std::isfinite(metric.value), name + " is not finite");

  if (args.trace) {
    print_span_summary(tracer);
    if (!trace_out.empty()) {
      if (tracer.write_jsonl(trace_out))
        std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                    trace_out.c_str());
      else
        result.check(false, "cannot write " + trace_out);
    }
  }
  for (const auto& [name, metric] : result.metrics)
    std::printf("%-28s %.9g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  std::printf("ops %llu ops_failed %llu queries %llu queries_failed %llu\n",
              static_cast<unsigned long long>(result.ops),
              static_cast<unsigned long long>(result.ops_failed),
              static_cast<unsigned long long>(result.queries),
              static_cast<unsigned long long>(result.queries_failed));
  for (const std::string& failure : result.failures)
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());

  const std::uint64_t attempted =
      std::max<std::uint64_t>(1, result.ops + result.queries);
  const std::uint64_t failed =
      result.correct ? result.ops_failed + result.queries_failed : attempted;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
