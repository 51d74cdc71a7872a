// Validates emitted JSON files against the schemas documented in
// docs/BENCH_SCHEMAS.md (tools/bench_schema.h); exits non-zero when any
// file fails.
//
//   bench_schema_check BENCH_perf_matrix.json REPORT_matrix_clean.json ...
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_schema.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bench_schema_check FILE.json...\n");
    return 2;
  }
  std::ifstream doc{BNM_BENCH_SCHEMAS_MD};
  std::ostringstream md;
  md << doc.rdbuf();
  int rc = 0;
  for (int i = 1; i < argc; ++i) {
    const std::vector<std::string> errors =
        bnm::tools::check_file(argv[i], md.str());
    for (const std::string& e : errors) {
      std::fprintf(stderr, "schema: %s\n", e.c_str());
    }
    if (errors.empty()) std::printf("schema: %s OK\n", argv[i]);
    rc |= errors.empty() ? 0 : 1;
  }
  return rc;
}
