// kc_perfbench: runs one benchmark workload and writes its raw results
// (setup times, per-iteration samples, check outcomes, spans) as JSON.
// perfbench/run.py builds this program, runs it and turns the raw results
// into the benchmark's metrics.
//
//   kc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --out <file.json> [--data-dir <dir>]
//                [--scale <f>] [--fail-check]      (the last two: self-test)
//
// Iteration i sets up a fresh instance of the workload from seed
// + i·1000003 (so instance 0 uses the run's seed itself), timed apart and
// never inside wall_s, then runs it untraced; instance 0 runs once more
// before that, untimed, as the warm-up.  Untraced runs (--trace 0)
// make at least kMinInstances iterations and go on until `--seconds` have
// passed; averaging over many instances keeps a run's figures from
// hinging on one instance.  Traced runs (--trace 1) follow every untraced
// iteration with a traced one and the layer-by-layer replay on the same
// instance, until `--seconds` have passed.  Every output fingerprint of an
// instance must equal its untraced one; a difference is a failed
// operation.  Exit status: 0 when every checked operation passed,
// 1 when one failed, 2 on a usage error, 3 when setup or a run threw
// outside a checked operation (no result file is written then).

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/rss.hpp"
#include "workload.hpp"

namespace {

using kcbench::Fingerprint;
using kcbench::IterStats;

/// Least number of instances an untraced run measures; the exact outputs
/// (summary words, radius) are medians over the first this many.
constexpr int kMinInstances = 8;

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string nums(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

std::string pairs(const std::vector<std::pair<std::string, double>>& v) {
  std::string out = "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += quote(v[i].first) + ":" + num(v[i].second);
  }
  return out + "}";
}

std::string iteration_json(const IterStats& s, const std::string& group,
                           int instance) {
  return "{\"group\":" + quote(group) +
         ",\"instance\":" + std::to_string(instance) +
         ",\"wall_s\":" + num(s.wall_s) +
         ",\"ingest_s\":" + num(s.ingest_s) +
         ",\"ingest_units\":" + num(s.ingest_units) +
         ",\"query_ms\":" + nums(s.query_ms) +
         ",\"summary_words\":" + num(s.summary_words) +
         ",\"comm_words\":" + num(s.comm_words) +
         ",\"radius\":" + num(s.radius) + "}";
}

/// Every item of `fp` must equal the reference item of the same name.
std::string fingerprint_diff(const Fingerprint& ref, const Fingerprint& fp) {
  std::map<std::string, double> want(ref.begin(), ref.end());
  for (const auto& [key, value] : fp) {
    const auto it = want.find(key);
    if (it == want.end()) return key + " missing from the untraced run";
    if (it->second != value)
      return key + ": " + num(value) + " vs untraced " + num(it->second);
  }
  return {};
}

int usage(const char* msg) {
  std::cerr << "kc_perfbench: " << msg << "\n";
  return 2;
}

}  // namespace

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool fail_check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--fail-check") {
      fail_check = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else {
      return usage(("unexpected argument " + a).c_str());
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "out"})
    if (args.count(required) == 0)
      return usage((std::string("missing --") + required).c_str());

  kcbench::RunOptions opt;
  const std::uint64_t seed = std::stoull(args["seed"]);
  opt.scale = args.count("scale") ? std::stod(args["scale"]) : 1.0;
  // Half the vCPUs, at most 2: a pool as wide as the machine waits on
  // whichever vCPU the host or a background task slows (mpc-batch's
  // iteration times varied more with 4 threads on 4 vCPUs than with 2).
  opt.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency() / 2, 1u, 2u));
  opt.data_dir = args.count("data-dir") ? args["data-dir"] : ".";
  const double seconds = std::stod(args["seconds"]);
  const bool traced = args["trace"] == "1";
  const std::string name = args["workload"];

  std::unique_ptr<kcbench::Workload> w;
  if (name == "stream-kcb") w = kcbench::make_stream_kcb(opt);
  if (name == "dynamic-turnstile") w = kcbench::make_dynamic_turnstile(opt);
  if (name == "mpc-batch") w = kcbench::make_mpc_batch(opt);
  if (!w) return usage(("unknown workload " + name).c_str());

  kcbench::Recorder recorder;
  kcbench::Recorder* rec = traced ? &recorder : nullptr;
  kcbench::Checker chk(fail_check);

  std::vector<double> setup_s;
  std::vector<std::string> iterations;
  Fingerprint reference;  // the current instance's untraced outputs
  const auto compare = [&](const Fingerprint& fp, const std::string& what) {
    chk.op("fidelity of " + what, [&] {
      const std::string diff = fingerprint_diff(reference, fp);
      chk.expect(diff.empty(), diff);
    });
  };

  const double start = kcbench::now_s();
  int index = 0;
  for (;;) {
    const std::string tag = "instance " + std::to_string(index);
    {
      kcbench::Scoped root(rec, "bench.setup");
      root.counter("group", index);
      const double t0 = kcbench::now_s();
      w->setup(seed + static_cast<std::uint64_t>(index) * 1000003u, rec);
      setup_s.push_back(kcbench::now_s() - t0);
    }
    if (index == 0) {
      // Warm-up before timing: one untimed run of instance 0 (first touches
      // of the code, the heap and the instance's pages).  The timed run
      // must reproduce its outputs.
      reference = w->run(chk, nullptr).fingerprint;
    }
    const IterStats plain = w->run(chk, nullptr);
    if (index == 0) compare(plain.fingerprint, "instance 0 after its warm-up");
    reference = plain.fingerprint;
    iterations.push_back(iteration_json(plain, "untraced", index));
    if (traced) {
      IterStats st;
      {
        kcbench::Scoped root(rec, "bench.iteration");
        root.counter("group", index);
        st = w->run(chk, rec);
      }
      compare(st.fingerprint, "traced " + tag);
      iterations.push_back(iteration_json(st, "traced", index));
      Fingerprint fp;
      {
        kcbench::Scoped root(rec, "bench.replay");
        root.counter("group", index);
        fp = w->replay(recorder);
      }
      if (!fp.empty()) compare(fp, "replay of " + tag);
    }
    ++index;
    const bool timed_out = kcbench::now_s() - start >= seconds;
    if (timed_out && (traced || index >= kMinInstances)) break;
  }
  w->cleanup();

  std::ofstream out(args["out"]);
  out << "{\"workload\":" << quote(name) << ",\"seed\":" << seed
      << ",\"traced\":" << (traced ? "true" : "false")
      << ",\"min_instances\":" << kMinInstances
      << ",\"setup_s\":" << nums(setup_s)
      << ",\"peak_rss_mb\":" << num(static_cast<double>(kc::peak_rss_bytes()) /
                                     (1024.0 * 1024.0))
      << ",\"attempted\":" << chk.attempted() << ",\"failed\":" << chk.failed()
      << ",\"failures\":[";
  for (std::size_t i = 0; i < chk.messages().size(); ++i)
    out << (i ? "," : "") << quote(chk.messages()[i]);
  out << "],\"iterations\":[";
  for (std::size_t i = 0; i < iterations.size(); ++i)
    out << (i ? "," : "") << iterations[i];
  out << "],\"spans\":[";
  const auto& spans = recorder.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << (i ? ",\n" : "") << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"name\":" << quote(s.name)
        << ",\"t0\":" << num(s.t0) << ",\"t1\":" << num(s.t1)
        << ",\"counters\":" << pairs(s.counters) << "}";
  }
  out << "]}\n";
  out.close();
  if (!out) {
    std::cerr << "kc_perfbench: cannot write " << args["out"] << "\n";
    return 2;
  }
  for (const auto& m : chk.messages())
    std::cerr << "check failed: " << m << "\n";
  return chk.failed() == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "kc_perfbench: " << e.what() << "\n";
    return 3;
  }
}
