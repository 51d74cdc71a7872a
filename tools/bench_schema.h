// Schema validation for the JSON files the repo emits: bench results
// (BENCH_*), reports (REPORT_*) and checkpoint journals (CHECKPOINT_*).
// tools/bench_schema_check is its command-line front end.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace bnm::tools {

/// Check the file at `path` against its schema in `bench_schemas_md` (the
/// text of docs/BENCH_SCHEMAS.md): the tables under every heading whose file
/// pattern matches the basename. A checkpoint journal's header, records and
/// checksums are checked line by line. Returns one message per problem;
/// empty = valid.
std::vector<std::string> check_file(const std::string& path,
                                    std::string_view bench_schemas_md);

}  // namespace bnm::tools
