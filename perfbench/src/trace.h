// Copyright 2026 The obtree Authors.
//
// In-memory spans of the traced run. Each recording thread owns a
// SpanBuffer with a fixed capacity reserved up front, so recording is one
// store into memory that is already mapped; spans past the capacity are
// counted as dropped, never allocated. Buffers are written out as CSV
// after the run.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Request kinds; also the span kinds of client requests.
enum OpKind : uint8_t {
  kGet,
  kMultiGet,
  kInsert,
  kErase,
  kUpsert,
  kScan,
  kCheckpoint,
  kLadder,  ///< one ladder rung repetition (aux = rung index)
  kNumOpKinds,
};

const char* OpKindName(OpKind kind);

struct Span {
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t aux;     ///< ladder rung index, else the key count
  uint16_t thread;  ///< client or ladder thread index
  uint8_t kind;
};

class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity = 0) { spans_.reserve(capacity); }

  void Add(OpKind kind, uint16_t thread, uint64_t start_ns, uint64_t end_ns, uint32_t aux) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back(Span{start_ns, end_ns, aux, thread, kind});
    } else {
      ++dropped_;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Write every span as "workload,kind,thread,aux,start_ns,end_ns" with
/// times relative to `origin_ns`; ladder spans carry their rung name.
bool WriteSpans(const std::string& path, const std::string& workload, uint64_t origin_ns,
                const std::vector<const SpanBuffer*>& buffers,
                const std::vector<std::string>& rung_names);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
