//===- telemetry/JsonWriter.h - Minimal streaming JSON writer ----*- C++ -*-=//
//
// Part of lfmalloc. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny streaming JSON emitter over a byte sink. Just enough structure
/// (objects, arrays, comma bookkeeping, string escaping) to guarantee the
/// metrics and trace exports are well-formed without pulling a JSON
/// dependency into an allocator.
///
/// Two sinks: FileSink over std::FILE* (JsonWriter), and the
/// async-signal-safe profiling::FdWriter (FdJsonWriter), which does no
/// stdio and no heap allocation, so the exporter and signal paths emit the
/// same documents as the stdio callers. Floating point is stdio-only.
///
//===----------------------------------------------------------------------===//

#ifndef LFMALLOC_TELEMETRY_JSONWRITER_H
#define LFMALLOC_TELEMETRY_JSONWRITER_H

#include "profiling/FdWriter.h"
#include "telemetry/MetricRegistry.h"

#include <cstdint>
#include <cstdio>

namespace lfm {
namespace telemetry {

/// stdio byte sink with the FdWriter interface (ch/str/dec).
class FileSink {
public:
  explicit FileSink(std::FILE *Out) : Out(Out) {}
  void ch(char C) { std::fputc(C, Out); }
  void str(const char *S) { std::fputs(S, Out); }
  void dec(std::uint64_t V) {
    std::fprintf(Out, "%llu", static_cast<unsigned long long>(V));
  }
  void dbl(double V) { std::fprintf(Out, "%.6g", V); }

private:
  std::FILE *Out;
};

/// Streaming JSON writer. The caller is responsible for balanced
/// begin/end calls; the writer handles commas and escaping.
template <class Sink> class BasicJsonWriter {
public:
  template <class Target> explicit BasicJsonWriter(Target T) : Out(T) {}

  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }

  /// Starts "key": inside an object; follow with a value or begin call.
  void key(const char *K) {
    comma();
    string(K);
    Out.ch(':');
    JustWroteKey = true;
  }

  void value(std::uint64_t V) {
    comma();
    Out.dec(V);
  }

  void value(std::int64_t V) {
    comma();
    if (V < 0) {
      Out.ch('-');
      Out.dec(static_cast<std::uint64_t>(-(V + 1)) + 1);
    } else {
      Out.dec(static_cast<std::uint64_t>(V));
    }
  }

  void value(double V) {
    comma();
    Out.dbl(V);
  }

  void value(bool V) {
    comma();
    Out.str(V ? "true" : "false");
  }

  void value(const char *V) {
    comma();
    string(V);
  }

  /// A registry scalar's wire value rendered per its type.
  void value(ScalarType T, std::uint64_t V) {
    switch (T) {
    case ScalarType::Bool:
      return value(V != 0);
    case ScalarType::I64:
      return value(static_cast<std::int64_t>(V));
    case ScalarType::Policy:
      return value(V != 0 ? "fifo" : "lifo");
    case ScalarType::U64:
      break;
    }
    value(V);
  }

  template <class... V> void field(const char *K, V... Vs) {
    key(K);
    value(Vs...);
  }

  void newline() { Out.ch('\n'); }

private:
  void open(char C) {
    comma();
    Out.ch(C);
    NeedComma = false;
  }

  void close(char C) {
    Out.ch(C);
    NeedComma = true;
    JustWroteKey = false;
  }

  void comma() {
    if (JustWroteKey) {
      JustWroteKey = false;
      return; // Value directly after its key: no comma.
    }
    if (NeedComma)
      Out.ch(',');
    NeedComma = true;
  }

  void string(const char *S) {
    Out.ch('"');
    for (; *S; ++S) {
      const unsigned char C = static_cast<unsigned char>(*S);
      switch (C) {
      case '"':
        Out.str("\\\"");
        break;
      case '\\':
        Out.str("\\\\");
        break;
      case '\n':
        Out.str("\\n");
        break;
      case '\t':
        Out.str("\\t");
        break;
      case '\r':
        Out.str("\\r");
        break;
      default:
        if (C < 0x20) {
          const char *Hex = "0123456789abcdef";
          Out.str("\\u00");
          Out.ch(Hex[C >> 4]);
          Out.ch(Hex[C & 0xF]);
        } else {
          Out.ch(static_cast<char>(C));
        }
      }
    }
    Out.ch('"');
  }

  Sink Out;
  bool NeedComma = false;
  bool JustWroteKey = false;
};

using JsonWriter = BasicJsonWriter<FileSink>;
using FdJsonWriter = BasicJsonWriter<profiling::FdWriter>;

} // namespace telemetry
} // namespace lfm

#endif // LFMALLOC_TELEMETRY_JSONWRITER_H
