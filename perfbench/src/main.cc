// zbench: runs one workload of the repository's benchmark and prints its
// metrics, closing with one JSON result line. run.py builds and invokes
// it; see ../README.md for the workloads and metrics.
//
//   zbench --workload <point_hot|olap_scan|serve_mixed> --seed <n>
//          --seconds <s> --trace <0|1> [--trace-dir <dir>]
//          [--corrupt-expected]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) perfbench::Fail("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value();
    } else if (flag == "--corrupt-expected") {
      args.corrupt_expected = true;
    } else {
      perfbench::Fail("unknown flag " + flag);
    }
  }
  if (!(args.seconds > 0)) perfbench::Fail("--seconds must be positive");
  if (args.workload == "point_hot") return perfbench::RunPointHot(args);
  if (args.workload == "olap_scan") return perfbench::RunOlapScan(args);
  if (args.workload == "serve_mixed") return perfbench::RunServeMixed(args);
  perfbench::Fail("unknown workload '" + args.workload + "'");
}
