// Copyright 2026 The obtree Authors.

#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case kGet: return "get";
    case kMultiGet: return "multiget";
    case kInsert: return "insert";
    case kErase: return "erase";
    case kUpsert: return "upsert";
    case kScan: return "scan";
    case kCheckpoint: return "checkpoint";
    case kLadder: return "ladder";
    case kNumOpKinds: break;
  }
  return "?";
}

bool WriteSpans(const std::string& path, const std::string& workload, uint64_t origin_ns,
                const std::vector<const SpanBuffer*>& buffers,
                const std::vector<std::string>& rung_names) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "workload,kind,thread,aux,start_ns,end_ns\n");
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      const OpKind kind = static_cast<OpKind>(s.kind);
      const std::string aux = kind == kLadder && s.aux < rung_names.size()
                                  ? rung_names[s.aux]
                                  : std::to_string(s.aux);
      std::fprintf(f, "%s,%s,%u,%s,%lld,%lld\n", workload.c_str(), OpKindName(kind),
                   static_cast<unsigned>(s.thread), aux.c_str(),
                   static_cast<long long>(s.start_ns - origin_ns),
                   static_cast<long long>(s.end_ns - origin_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
