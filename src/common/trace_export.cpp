#include "common/trace_export.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>

#include "common/arena.hpp"
#include "common/atomic_file.hpp"
#include "common/build_info.hpp"
#include "common/error.hpp"
#include "common/obs.hpp"
#include "common/perfmon.hpp"

namespace sdmpeb::obs {

namespace {

/// JSON string escape (control chars, quotes, backslash).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// Render a double without locale surprises and with enough precision for
/// microsecond timestamps. Non-finite values render as 0 — every emitter
/// here feeds JSON or CSV consumed by parsers that reject NaN/Inf.
std::string fmt_double(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// Shorter form for derived ratios (ipc, mpki).
std::string fmt_ratio(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// `# key=value` attribution lines shared by the CSV dumpers.
void write_build_comment_header(std::ostream& os) {
  os << "# git_sha=" << build::git_sha() << "\n"
     << "# build_type=" << build::build_type() << "\n"
     << "# build_flags=" << build::build_flags() << "\n";
}

/// Find the slot index of a counter by name, -1 if the active tier lacks it.
int perf_slot(const char* name) {
  const int n = perfmon::counter_count();
  for (int i = 0; i < n; ++i)
    if (std::string(perfmon::counter_name(i)) == name) return i;
  return -1;
}

}  // namespace

void write_chrome_trace(std::ostream& os) {
  const auto spans = collect_spans();

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;

  // Thread-name metadata: one "M" event per tid that recorded anything.
  int last_tid = -1;
  for (const auto& s : spans) {
    if (s.tid == last_tid) continue;
    last_tid = s.tid;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << s.tid << ",\"args\":{\"name\":\"" << json_escape(s.thread_name)
       << "\"}}";
  }

  // Counter slot indices resolved once per export, not per span.
  const int slot_cycles = perf_slot("cycles");
  const int slot_instr = perf_slot("instructions");
  const int slot_l1d = perf_slot("l1d_miss");
  const int slot_llc = perf_slot("llc_miss");
  const int slot_branch = perf_slot("branch_miss");

  for (const auto& s : spans) {
    if (!first) os << ",";
    first = false;
    const double ts_us = static_cast<double>(s.begin_ns) * 1e-3;
    const double dur_us =
        static_cast<double>(s.end_ns - s.begin_ns) * 1e-3;
    os << "{\"name\":\"" << json_escape(s.name)
       << "\",\"cat\":\"sdmpeb\",\"ph\":\"X\",\"ts\":" << fmt_double(ts_us)
       << ",\"dur\":" << fmt_double(dur_us) << ",\"pid\":1,\"tid\":"
       << s.tid;

    const bool has_flops = s.arg_name == "flops";
    const bool has_gflops = has_flops && s.end_ns > s.begin_ns && s.arg > 0;
    if (!s.arg_name.empty() || s.perf_count > 0 || has_gflops) {
      os << ",\"args\":{";
      bool first_arg = true;
      const auto arg_sep = [&] {
        if (!first_arg) os << ",";
        first_arg = false;
      };
      if (!s.arg_name.empty()) {
        arg_sep();
        os << "\"" << json_escape(s.arg_name) << "\":" << s.arg;
      }
      if (has_gflops) {
        // Achieved-vs-roofline attribution: flops over span wall time.
        arg_sep();
        os << "\"gflops\":"
           << fmt_ratio(static_cast<double>(s.arg) /
                        static_cast<double>(s.end_ns - s.begin_ns));
      }
      for (int i = 0; i < s.perf_count; ++i) {
        arg_sep();
        os << "\"" << perfmon::counter_name(i) << "\":" << s.perf[i];
      }
      if (s.perf_count > 0 && slot_cycles >= 0 && slot_instr >= 0 &&
          s.perf[slot_cycles] > 0) {
        const double cycles = static_cast<double>(s.perf[slot_cycles]);
        const double instr = static_cast<double>(s.perf[slot_instr]);
        arg_sep();
        os << "\"ipc\":" << fmt_ratio(instr / cycles);
        if (instr > 0) {
          const auto mpki = [&](int slot, const char* key) {
            if (slot < 0) return;
            arg_sep();
            os << "\"" << key << "\":"
               << fmt_ratio(static_cast<double>(s.perf[slot]) * 1e3 / instr);
          };
          mpki(slot_l1d, "l1d_mpki");
          mpki(slot_llc, "llc_mpki");
          mpki(slot_branch, "branch_mpki");
        }
      }
      os << "}";
    }
    os << "}";
  }
  os << "]}";
}

bool write_chrome_trace_file(const std::string& path) {
  // Render in memory and replace atomically: exporters run on teardown /
  // crash paths, where a torn half-JSON would be worse than no file.
  std::ostringstream buffer;
  write_chrome_trace(buffer);
  try {
    atomic_write_file(path, buffer.str());
  } catch (const Error&) {
    return false;
  }
  return true;
}

void refresh_derived_metrics() {
  gauge("arena.live_bytes")
      .set(static_cast<double>(WorkspaceArena::total_heap_bytes()));
  gauge("arena.high_water_bytes")
      .update_max(static_cast<double>(WorkspaceArena::peak_heap_bytes()));
  gauge("arena.heap_blocks")
      .set(static_cast<double>(WorkspaceArena::total_heap_blocks()));
  gauge("obs.dropped_spans").set(static_cast<double>(dropped_spans()));

  // Achieved GEMM throughput over the whole run (flops and wall time are
  // both accumulated at the gemm() dispatch when tracing is on).
  const auto flops = counter("gemm.flops").value();
  const auto ns = counter("gemm.time_ns").value();
  if (flops > 0 && ns > 0)
    gauge("gemm.gflops")
        .set(static_cast<double>(flops) / static_cast<double>(ns));

  // Per-kernel counter attribution: aggregate counter-annotated spans by
  // name into perf.<name>.{cycles,instructions,ipc} gauges. Span names are
  // a small fixed set of literals, so the registry stays bounded. Cheap
  // enough for dump paths (collect_spans is a snapshot copy) and never run
  // from hot kernel code.
  const int slot_cycles = perf_slot("cycles");
  const int slot_instr = perf_slot("instructions");
  if (slot_cycles >= 0 && slot_instr >= 0) {
    struct Totals {
      std::uint64_t cycles = 0;
      std::uint64_t instr = 0;
    };
    std::map<std::string, Totals> by_name;
    for (const auto& s : collect_spans()) {
      if (s.perf_count == 0) continue;
      auto& t = by_name[s.name];
      t.cycles += s.perf[slot_cycles];
      t.instr += s.perf[slot_instr];
    }
    for (const auto& [name, t] : by_name) {
      gauge("perf." + name + ".cycles").set(static_cast<double>(t.cycles));
      gauge("perf." + name + ".instructions")
          .set(static_cast<double>(t.instr));
      if (t.cycles > 0)
        gauge("perf." + name + ".ipc")
            .set(static_cast<double>(t.instr) /
                 static_cast<double>(t.cycles));
    }
  }
  gauge("perfmon.mode").set(static_cast<double>(perfmon::mode()));
}

void write_metrics_csv(std::ostream& os) {
  refresh_derived_metrics();
  const auto snap = snapshot_metrics();
  write_build_comment_header(os);
  os << "name,kind,value,count,sum\n";
  for (const auto& [name, value] : snap.counters)
    os << name << ",counter," << value << ",,\n";
  for (const auto& [name, value] : snap.gauges)
    os << name << ",gauge," << fmt_double(value) << ",,\n";
  for (const auto& h : snap.histograms) {
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      os << h.name << ",histogram_le_";
      if (i < h.bounds.size())
        os << fmt_double(h.bounds[i]);
      else
        os << "inf";
      os << "," << h.counts[i] << ",,\n";
    }
    os << h.name << ",histogram," << fmt_double(
              h.total > 0 ? h.sum / static_cast<double>(h.total) : 0.0)
       << "," << h.total << "," << fmt_double(h.sum) << "\n";
  }
}

bool write_metrics_csv_file(const std::string& path) {
  std::ostringstream buffer;
  write_metrics_csv(buffer);
  try {
    atomic_write_file(path, buffer.str());
  } catch (const Error&) {
    return false;
  }
  return true;
}

}  // namespace sdmpeb::obs
