//===- perfbench/src/Trace.h - In-memory spans around calls into layers ---===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. The benchmark wraps its own calls into
/// each layer of odburg — CompileService submit and the OnResult sink,
/// LabelerBackend::labelFunction, reduce, targets::emitAsm,
/// ir::parseSExprProgram, socket send and receive — in spans: a name, a
/// start and an end, the parent span, and a request id shared by one
/// function's spans. Spans live in a preallocated array (an atomic cursor
/// hands out slots, so recording takes no lock) and are written out once,
/// when the run ends. Self time — a span's duration minus the part of it
/// its children cover — is computed from them afterwards.
///
/// A span may be opened on one thread and closed on another (a request
/// opens at submit on the producer and closes in the sink on a worker);
/// open() writes every field but the end, close() writes only the end,
/// and spans are read only after every recording thread has finished.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace perfbench {

struct Span {
  /// Static string naming the layer call ("label", "submit", ...).
  const char *Name = nullptr;
  std::uint64_t StartNs = 0;
  std::uint64_t EndNs = 0;
  /// 1-based id of the parent span; 0 for a root.
  std::uint32_t Parent = 0;
  /// Request (function) id shared by one function's spans.
  std::uint64_t Req = 0;
};

class Trace {
public:
  /// A disabled trace records nothing and costs one branch per call.
  Trace(bool Enabled, std::size_t Capacity);
  Trace(const Trace &) = delete;
  Trace &operator=(const Trace &) = delete;

  /// Opens a span; returns its 1-based id, or 0 when disabled or full.
  std::uint32_t open(const char *Name, std::uint64_t Req,
                     std::uint32_t Parent, std::uint64_t StartNs);
  /// Closes span \p Id (no-op for 0).
  void close(std::uint32_t Id, std::uint64_t EndNs);
  /// Records a finished span.
  std::uint32_t record(const char *Name, std::uint64_t Req,
                       std::uint32_t Parent, std::uint64_t StartNs,
                       std::uint64_t EndNs) {
    std::uint32_t Id = open(Name, Req, Parent, StartNs);
    close(Id, EndNs);
    return Id;
  }

  /// Spans recorded so far (excluding dropped ones).
  std::size_t size() const;
  /// Spans opened after the array was full; a traced run with any is
  /// refused, since its per-layer metrics would miss their spans.
  std::size_t dropped() const { return Dropped.load(); }
  const Span &span(std::uint32_t Id) const { return Spans[Id - 1]; }

  /// Total self time per span name, nanoseconds. Call after recording.
  std::map<std::string, double> selfTimeNs() const;

  /// Writes every span as one CSV line (id,parent,req,name,start,end).
  bool writeCsv(const std::string &Path) const;

private:
  bool Enabled;
  std::size_t Capacity;
  std::unique_ptr<Span[]> Spans;
  std::atomic<std::size_t> Next{0};
  std::atomic<std::size_t> Dropped{0};
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
