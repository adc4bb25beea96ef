// perfbench — the end-to-end benchmark of the trace-driven debugger.
//
//   perfbench --workload <record|postmortem|postmortem-mem|serve>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--tiny] [--corrupt digest|response]
//
// Generates the workload's inputs from the seed, sets up three times
// (median reported as setup_s), measures for the given seconds, checks
// every output, and prints one JSON result line last on stdout: the
// end-to-end metrics with --trace 0, the per-layer metrics (from spans
// around the benchmark's own layer calls, written to the work
// directory) with --trace 1.  Normally started by run.py, which builds
// it first.

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Args;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--tiny] [--corrupt KIND]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else if (flag == "--corrupt") {
      a.corrupt = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workdir.empty()) usage("--workdir is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::filesystem::create_directories(args.workdir);
  perfbench::Result result;
  try {
    if (args.workload == "record") {
      perfbench::run_record(args, result);
    } else if (args.workload == "postmortem") {
      perfbench::run_postmortem(args, false, result);
    } else if (args.workload == "postmortem-mem") {
      perfbench::run_postmortem(args, true, result);
    } else if (args.workload == "serve") {
      perfbench::run_serve(args, result);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }
  std::cout << result.json() << std::endl;
  return 0;
}
