// perfbench — the repository benchmark. One closed loop (one caller, one
// simulation or batch at a time) over a fixed workload, driven only through
// uvmsim's public API.
//
//   perfbench --workload <sssp-adaptive|ra-thrash|fig6-sweep> [--seed N]
//             [--seconds S] [--trace 0|1] [--smoke]
//
// --trace 0 measures the end-to-end metrics in an untraced process; --trace 1
// runs traced passes beside untraced ones and reports the per-layer metrics.
// Both check their outputs (see NOTES.md, "Correctness gate"). The last line
// of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <uvmsim/uvmsim.hpp>

#include "layers.hpp"
#include "probes.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using uvmsim::PolicyKind;
using uvmsim::RunRequest;
using uvmsim::SimStats;

constexpr double kMiB = 1024.0 * 1024.0;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Workloads

// The workloads' default input seed: the one the paper's figures and the
// committed artifacts were produced with.
const std::uint64_t kPaperSeed = uvmsim::WorkloadParams{}.seed;

struct Args {
  std::string workload;
  std::uint64_t seed = kPaperSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< tiny inputs: checks the gate, not the speed
};

// The committed Fig 6 table, relative to the repository root (the working
// directory run.py starts the driver in).
constexpr const char* kFig6Artifact = "artifacts/fig6_oversub_runtime.csv";

/// One benchmark workload: the requests of one timed unit (a run_batch over
/// `cells`) and the Fig 6 rows its correctness gate and fig6_mae cover.
struct Spec {
  std::string name;
  std::vector<RunRequest> cells;
  unsigned jobs = 1;
  std::vector<std::string> fig6_rows;
};

// Fig 6's four schemes, in the column order of the artifact CSV.
constexpr PolicyKind kFig6Schemes[] = {PolicyKind::kFirstTouch, PolicyKind::kStaticAlways,
                                       PolicyKind::kStaticOversub, PolicyKind::kAdaptive};
constexpr double kFig6Oversub = 1.25;
constexpr double kFig6Scale = 1.0;

// Fig 6 (simulator) as the paper reports it; bench/fig6_oversub_runtime.cpp
// prints the same table. Columns follow kFig6Schemes.
const std::map<std::string, std::vector<double>>& paper_fig6() {
  static const std::map<std::string, std::vector<double>> rows{
      {"backprop", {1.0, 0.9962, 1.0002, 1.0050}}, {"fdtd", {1.0, 1.0068, 1.0052, 1.0077}},
      {"hotspot", {1.0, 0.9204, 0.9946, 1.0022}},  {"srad", {1.0, 1.0004, 1.0000, 1.0001}},
      {"bfs", {1.0, 0.8015, 0.9064, 0.7821}},      {"nw", {1.0, 1.0050, 0.9868, 0.6718}},
      {"ra", {1.0, 0.2437, 1.0000, 0.2177}},       {"sssp", {1.0, 0.7462, 0.7612, 0.4021}},
  };
  return rows;
}

RunRequest make_request(const std::string& workload, PolicyKind policy, double oversub,
                        double scale, std::uint64_t seed) {
  RunRequest req;
  req.workload = workload;
  req.params.scale = scale;
  req.params.seed = seed;
  req.config.policy.policy = policy;
  // Baseline keeps the stock LRU; every counter-based scheme uses the
  // paper's access-counter LFU (paper §VI), as in the figure benches.
  req.config.mem.eviction = policy == PolicyKind::kFirstTouch ? uvmsim::EvictionKind::kLru
                                                              : uvmsim::EvictionKind::kLfu;
  req.oversub = oversub;
  return req;
}

// Under the paper's round caps, a graph workload's work is set by the degree
// of source vertex 0, which the seed draws: over seeds 0-23 one sssp cell at
// scale 1 issued 0.27M to 6.9M accesses. Fig 6 cells of bfs and sssp
// therefore always use the paper's input seed; the other cells take the run's.
std::uint64_t fig6_seed(const std::string& workload, std::uint64_t seed) {
  return workload == "bfs" || workload == "sssp" ? kPaperSeed : seed;
}

std::vector<RunRequest> fig6_cells(const std::vector<std::string>& rows, double scale,
                                   std::uint64_t seed) {
  std::vector<RunRequest> cells;
  for (const std::string& w : rows)
    for (const PolicyKind p : kFig6Schemes)
      cells.push_back(make_request(w, p, kFig6Oversub, scale, fig6_seed(w, seed)));
  return cells;
}

// Worker threads for the sweep and the Fig 6 rows: two at most, to keep the
// benchmark's own threads from contending on a small shared host.
unsigned sweep_jobs() { return std::clamp(std::thread::hardware_concurrency(), 1u, 2u); }

Spec make_spec(const Args& a) {
  Spec s;
  s.name = a.workload;
  const double shrink = a.smoke ? 0.05 : 1.0;
  if (a.workload == "sssp-adaptive") {
    // The paper's headline configuration: heavy task generation and policy
    // consultation, a light fault path. sssp runs until its worklist drains
    // (17-22 rounds) instead of the default 7, so that every seed processes
    // its whole reachable graph; each unit runs two graphs drawn from the
    // seed, which halves the spread of the work between seeds.
    for (const std::uint64_t sub : {2 * a.seed, 2 * a.seed + 1}) {
      RunRequest req = make_request("sssp", PolicyKind::kAdaptive, 1.5, 1.0 * shrink, sub);
      req.params.iterations = 64;
      s.cells.push_back(req);
    }
    s.fig6_rows = {"sssp"};
  } else if (a.workload == "ra-thrash") {
    // Fig 7's thrashing regime: heavy fault engine, eviction, transfers and
    // prefetching; trivial set-up and task generation.
    s.cells = {make_request("ra", PolicyKind::kFirstTouch, 1.5, 2.0 * shrink, a.seed)};
    s.fig6_rows = {"ra"};
  } else if (a.workload == "fig6-sweep") {
    // The full Fig 6 grid on the batch engine: cross-cell input reuse and
    // the regular kernels.
    s.fig6_rows = uvmsim::workload_names();
    s.cells = fig6_cells(s.fig6_rows, kFig6Scale * shrink, a.seed);
    s.jobs = sweep_jobs();
  } else {
    throw std::invalid_argument("unknown workload '" + a.workload +
                                "' (sssp-adaptive, ra-thrash, fig6-sweep)");
  }
  return s;
}

// ---------------------------------------------------------------------------
// Operations and the correctness gate

struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
  /// Count one operation; a false `ok` makes it a failed one.
  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
    return ok;
  }
};

struct Totals {
  std::uint64_t accesses = 0;
  double kernel_ms = 0.0;
  double migrated_mb = 0.0;
  std::uint64_t pages_thrashed = 0;
  SimStats sum;
};

Totals totals(const std::vector<SimStats>& stats, const std::vector<RunRequest>& cells) {
  Totals t;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const SimStats& s = stats[i];
    t.sum.accumulate(s);
    t.accesses += s.total_accesses;
    t.kernel_ms += static_cast<double>(s.kernel_cycles) /
                   (cells[i].config.gpu.core_clock_ghz * 1e6);
    t.migrated_mb += static_cast<double>(s.blocks_migrated + s.blocks_prefetched) *
                     static_cast<double>(uvmsim::kBasicBlockSize) / kMiB;
    t.pages_thrashed += s.pages_thrashed;
  }
  return t;
}

/// One untimed-or-timed unit: run_batch over the spec's cells. Every entry
/// is an operation; a thrown run fails it, and so does a SimStats mismatch
/// against `reference` when one is given.
struct BatchRun {
  double wall_ms = 0.0;
  double cell_sum_ms = 0.0;
  double slowest_ms = 0.0;
  std::vector<SimStats> stats;
};

BatchRun run_unit(const Spec& spec, Ledger& ledger, const std::vector<SimStats>* reference) {
  uvmsim::BatchOptions opts;
  opts.jobs = spec.jobs;
  const uvmsim::BatchResult batch = uvmsim::run_batch(spec.cells, opts);
  BatchRun out;
  out.wall_ms = batch.wall_ms;
  for (std::size_t i = 0; i < batch.entries.size(); ++i) {
    const uvmsim::BatchEntry& e = batch.entries[i];
    out.cell_sum_ms += e.wall_ms;
    out.slowest_ms = std::max(out.slowest_ms, e.wall_ms);
    out.stats.push_back(e.result.stats);
    const std::string tag = spec.name + " cell " + std::to_string(i) + " (" +
                            e.request.workload + ")";
    if (!ledger.check(e.ok(), tag + " threw: " + e.error)) continue;
    if (reference != nullptr && i < reference->size())
      ledger.check(e.result.stats == (*reference)[i], tag + ": SimStats differ between runs");
  }
  return out;
}

/// Cold set-up of every cell: make_workload + build + schedule with the
/// input cache cleared first. Returns seconds.
double setup_once(const Spec& spec, uvmsim::InputCacheStats* delta) {
  uvmsim::input_cache_clear();
  const uvmsim::InputCacheStats before = uvmsim::input_cache_stats();
  const auto start = Clock::now();
  for (const RunRequest& cell : spec.cells) {
    auto w = uvmsim::make_workload(cell.workload, cell.params);
    uvmsim::AddressSpace space;
    w->build(space);
    const auto launches = w->schedule();
    if (launches.empty()) throw std::logic_error(cell.workload + ": empty schedule");
  }
  const double s = ms_since(start) / 1000.0;
  if (delta != nullptr) {
    const uvmsim::InputCacheStats after = uvmsim::input_cache_stats();
    delta->hits = after.hits - before.hits;
    delta->misses = after.misses - before.misses;
  }
  return s;
}

/// One set-up sample: back-to-back cold set-ups until 2 ms have passed, at
/// least one (ra's set-up takes about a microsecond, too short to time one at
/// a time). Returns the mean seconds per set-up. The sample is one operation;
/// a set-up that throws fails it and the sample returns a negative value.
double setup_sample(const Spec& spec, Ledger& ledger, uvmsim::InputCacheStats* delta) {
  double sum = 0.0;
  std::size_t n = 0;
  try {
    for (const auto start = Clock::now(); n == 0 || ms_since(start) < 2.0; ++n)
      sum += setup_once(spec, delta);
  } catch (const std::exception& e) {
    ledger.check(false, spec.name + ": set-up threw: " + e.what());
    return -1.0;
  }
  ledger.check(true, spec.name + " set-up");
  return sum / static_cast<double>(n);
}

/// The traced pass: every cell through Simulator::run with gen_task timing
/// and a LayerCounter attached. Results are summed over cells.
struct TracedPass {
  double wall_ms = 0.0;
  perfbench::GenTimer gen;
  perfbench::LayerCounter counter;
  std::vector<SimStats> stats;
};

void traced_pass(const Spec& spec, TracedPass& pass) {
  const auto start = Clock::now();
  for (const RunRequest& cell : spec.cells) {
    uvmsim::SimConfig cfg = cell.config;
    cfg.mem.oversubscription = cell.oversub;
    cfg.collect_traces = true;
    perfbench::TimedWorkload w(uvmsim::make_workload(cell.workload, cell.params), pass.gen);
    uvmsim::RunOptions opts;
    opts.trace_sink = &pass.counter;
    pass.stats.push_back(uvmsim::Simulator(cfg).run(w, opts).stats);
  }
  pass.wall_ms = ms_since(start);
}

/// The sink's own counts must agree with the simulator's for the same run.
void check_counter(const TracedPass& pass, Ledger& ledger, const std::string& name) {
  SimStats s;
  for (const SimStats& cell : pass.stats) s.accumulate(cell);
  const perfbench::LayerCounter& c = pass.counter;
  const bool ok = c.decide_migrate == s.decide_migrate && c.decide_remote == s.decide_remote &&
                  c.write_forced == s.write_forced_migrations &&
                  c.fault_batches == s.fault_batches && c.evictions == s.evictions &&
                  c.prefetched == s.blocks_prefetched &&
                  c.migrations == s.blocks_migrated + s.blocks_prefetched &&
                  c.victims * uvmsim::kPagesPerBlock == s.pages_evicted;
  ledger.check(ok, name + ": trace-sink counts disagree with SimStats");
}

// ---------------------------------------------------------------------------
// Fig 6 rows: normalised runtimes, the artifact check and fig6_mae

/// Normalised Fig 6 rows as CSV lines, formatted exactly as the figure bench
/// writes them (uvmsim::Table, three decimals).
std::vector<std::string> fig6_lines(const std::vector<std::string>& rows,
                                    const std::vector<SimStats>& stats, double* mae) {
  uvmsim::Table table({"workload", "baseline", "always", "oversub", "adaptive"});
  double abs_err = 0.0;
  std::size_t cells = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    table.row().cell(rows[r]);
    const auto base = static_cast<double>(stats[r * 4].kernel_cycles);
    for (std::size_t k = 0; k < 4; ++k) {
      const double norm = ratio(static_cast<double>(stats[r * 4 + k].kernel_cycles), base);
      table.cell(norm);
      abs_err += std::abs(norm - paper_fig6().at(rows[r])[k]);
      ++cells;
    }
  }
  *mae = ratio(abs_err, static_cast<double>(cells));
  std::vector<std::string> lines;
  std::istringstream in(table.to_csv());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Every measured row whose cells ran on the paper's inputs (full size, the
/// paper's seed) must equal its line in the committed Fig 6 artifact.
/// Returns the number of rows checked.
std::size_t check_artifact(const std::vector<std::string>& rows,
                           const std::vector<std::string>& measured, std::uint64_t seed,
                           const std::string& path, Ledger& ledger) {
  std::ifstream in(path);
  std::map<std::string, std::string> expected;
  for (std::string line; std::getline(in, line);)
    expected[line.substr(0, line.find(','))] = line;
  std::size_t checked = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (fig6_seed(rows[r], seed) != kPaperSeed) continue;
    const std::string& line = measured[r + 1];  // measured[0] is the header
    const auto it = expected.find(rows[r]);
    ledger.check(it != expected.end() && it->second == line,
                 "Fig 6 row differs from " + path + ": " + line);
    ++checked;
  }
  return checked;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< base of a ratio, sample count, ... (report only)
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += ledger.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-34s %16.6g %-7s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
}

// Which end-to-end metric each layer's numbers should move, per workload
// (NOTES.md, "Per layer").
const std::map<std::string, std::string>& layer_targets() {
  static const std::map<std::string, std::string> t{
      {"workloads", "setup_s, wall_s on sssp-adaptive and fig6-sweep; nothing on ra-thrash"},
      {"core", "wall_s on ra-thrash (fault path) and sssp-adaptive (access path); "
               "sim_kernel_ms on ra-thrash"},
      {"policy", "wall_s, sim_kernel_ms, sim_migrated_mb on sssp-adaptive"},
      {"mem", "wall_s, sim_pages_thrashed on ra-thrash; nothing on sssp-adaptive"},
      {"prefetch", "sim_migrated_mb, sim_kernel_ms on ra-thrash and fig6-sweep"},
      {"xfer", "sim_kernel_ms on ra-thrash"},
      {"gpu", "accesses_per_s on all three"},
      {"sim", "wall_s on fig6-sweep only"},
      {"obs", "none: whether the traced numbers are representative"},
      {"bench", "none: host-interference diagnostics"},
  };
  return t;
}

void print_layers(const std::vector<Metric>& metrics) {
  std::string layer;
  for (const Metric& m : metrics) {
    const std::string l = m.name.substr(0, m.name.find('.'));
    if (l != layer) {
      layer = l;
      std::printf("[%s] should move: %s\n", l.c_str(), layer_targets().at(l).c_str());
    }
    print_table({m});
  }
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::uint64_t out = 0;
  const auto res = std::from_chars(v.data(), v.data() + v.size(), out);
  if (res.ec != std::errc{} || res.ptr != v.data() + v.size())
    throw std::invalid_argument(flag + ": not an unsigned integer: '" + v + "'");
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(f + ": missing value");
    const std::string v = argv[++i];
    if (f == "--workload") {
      a.workload = v;
    } else if (f == "--seed") {
      a.seed = parse_u64(f, v);
    } else if (f == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(f, v));
    } else if (f == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace: expected 0 or 1");
      a.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown flag " + f);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------

int run(const Args& args) {
  const Spec spec = make_spec(args);
  Ledger ledger;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d cells=%zu jobs=%u\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? 1 : 0, spec.cells.size(), spec.jobs);

  // Warm-up, untimed: one cold set-up sample (which records the input
  // cache's counts) and one unit, whose SimStats are the reference every
  // later unit must reproduce. Peak RSS is read here, before any probe
  // allocates and before later set-ups churn the allocator (which leaves
  // seed-dependent fragmentation behind).
  uvmsim::InputCacheStats cache{};
  (void)setup_sample(spec, ledger, &cache);
  const std::vector<SimStats> ref = run_unit(spec, ledger, nullptr).stats;
  const double rss_mb = peak_rss_mb();

  // Closed loop: one unit, then one cold set-up sample, until the run's time
  // is spent, at least five. Each unit finds the input cache warm from the
  // set-up before it. The reference probe runs before the loop and after
  // every iteration, on as many threads as the unit uses; the host-time
  // metrics are normalised by its mean over the run (probes.hpp), which
  // cancels how fast the host happened to run.
  std::vector<double> walls, setups, ref_ms;
  std::vector<double> cell_sums, slowest, traced_walls, gen_ms, cpu_ms, l3_ms;
  TracedPass first_pass;
  const auto probe = [&] {
    cpu_ms.push_back(perfbench::cpu_probe_ms());
    l3_ms.push_back(perfbench::l3_probe_ms());
  };
  probe();
  ref_ms.push_back(perfbench::ref_probe_ms(spec.jobs));
  const auto measure_start = Clock::now();
  while (walls.size() < 5 || ms_since(measure_start) < args.seconds * 1000.0) {
    const BatchRun r = run_unit(spec, ledger, &ref);
    const double setup = setup_sample(spec, ledger, nullptr);
    ref_ms.push_back(perfbench::ref_probe_ms(spec.jobs));
    walls.push_back(r.wall_ms);
    if (setup >= 0.0) setups.push_back(setup);
    cell_sums.push_back(r.cell_sum_ms);
    slowest.push_back(r.slowest_ms);
    if (args.trace) {
      TracedPass pass;
      try {
        traced_pass(spec, pass);
      } catch (const std::exception& e) {
        ledger.check(false, spec.name + ": traced run threw: " + e.what());
        continue;
      }
      ledger.check(pass.stats == ref, spec.name + ": traced SimStats differ from untraced");
      check_counter(pass, ledger, spec.name);
      traced_walls.push_back(pass.wall_ms);
      gen_ms.push_back(static_cast<double>(pass.gen.ns) / 1e6);
      if (traced_walls.size() == 1) first_pass = std::move(pass);
      probe();
    }
  }
  if (!args.trace) probe();

  // Fig 6 rows: the sweep's own cells, or the workload's row run once.
  double mae = 0.0;
  std::vector<SimStats> row_stats = ref;
  if (spec.cells.size() != spec.fig6_rows.size() * 4) {
    Spec rows{spec.name + " fig6-row",
              fig6_cells(spec.fig6_rows, kFig6Scale * (args.smoke ? 0.05 : 1.0), args.seed),
              sweep_jobs(), {}};
    row_stats = run_unit(rows, ledger, nullptr).stats;
  }
  const std::vector<std::string> lines = fig6_lines(spec.fig6_rows, row_stats, &mae);
  const std::size_t checked =
      args.smoke ? 0 : check_artifact(spec.fig6_rows, lines, args.seed, kFig6Artifact, ledger);
  std::printf("# fig6 rows (%zu of %zu on the paper's inputs, checked against %s):\n", checked,
              spec.fig6_rows.size(), kFig6Artifact);
  for (const std::string& l : lines) std::printf("#   %s\n", l.c_str());

  const Totals t = totals(ref, spec.cells);
  const double wall_ms = median(walls);  // as measured
  const double setup_raw_s = median(setups);
  // Normalised: the mean over the run, scaled as if every reference probe
  // had taken kRefProbeNominalMs. Means, not medians: every probe then
  // weighs the same, where a median would follow whichever one or two
  // probes happened to sit in the middle.
  const double host = perfbench::kRefProbeNominalMs / mean(ref_ms);
  const double wall_s = mean(walls) * host / 1000.0;
  const double setup_s = mean(setups) * host;
  std::printf("# %zu timed units, %zu set-up samples; measured medians: unit %.1f ms, set-up %.4g ms\n",
              walls.size(), setups.size(), wall_ms, setup_raw_s * 1000.0);
  std::printf("# probes: ref mean %.1f ms of %zu on %u thread(s) (nominal %.0f, host factor %.4f); "
              "median cpu %.1f ms, l3 %.1f ms of %zu\n",
              mean(ref_ms), ref_ms.size(), spec.jobs, perfbench::kRefProbeNominalMs, host,
              median(cpu_ms), median(l3_ms), cpu_ms.size());
  std::printf("# unit walls (ms, measured):");
  for (const double w : walls) std::printf(" %.1f", w);
  std::printf("\n# ref probes (ms):");
  for (const double v : ref_ms) std::printf(" %.1f", v);
  std::printf("\n# set-ups (ms, measured):");
  for (const double v : setups) std::printf(" %.4g", v * 1000.0);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"wall_s", wall_s, "s", "normalised mean of " + std::to_string(walls.size())},
        {"accesses_per_s", ratio(static_cast<double>(t.accesses), wall_s), "1/s",
         std::to_string(t.accesses) + " accesses / wall_s"},
        {"setup_s", setup_s, "s", "normalised mean of " + std::to_string(setups.size())},
        {"peak_rss_mb", rss_mb, "MB", "one cold set-up and one unit, before any probe"},
        {"sim_kernel_ms", t.kernel_ms, "ms", "simulated"},
        {"sim_migrated_mb", t.migrated_mb, "MB", "demand + prefetched blocks x 64 KB"},
        {"sim_pages_thrashed", static_cast<double>(t.pages_thrashed), "count", ""},
        {"fig6_mae", mae, "ratio",
         std::to_string(spec.fig6_rows.size() * 4) + " normalised runtimes vs paper Fig 6"},
    };
    std::printf("# end-to-end metrics\n");
    print_table(metrics);
  } else {
    const SimStats& s = t.sum;
    const perfbench::LayerCounter& c = first_pass.counter;
    auto fault_wait = c.fault_wait;
    auto mig_wait = c.migration_wait;
    const double traced_ms = median(traced_walls);
    const double gen = median(gen_ms);
    const double acc = static_cast<double>(s.total_accesses);
    const double untraced_s = wall_ms / 1000.0;
    const double cell_sum = median(cell_sums);
    const auto cnt = [](std::uint64_t v) { return static_cast<double>(v); };
    const auto of = [](std::uint64_t num, std::uint64_t den) {
      return "= " + std::to_string(num) + " / " + std::to_string(den);
    };
    const std::string fw_n = "n=" + std::to_string(fault_wait.samples.size());
    const std::string mw_n = "n=" + std::to_string(mig_wait.samples.size());
    metrics = {
        {"workloads.setup_ms", setup_raw_s * 1000.0, "ms",
         "cold, measured, median of " + std::to_string(setups.size())},
        {"workloads.gen_ms", gen, "ms", "gen_task self time, median of " + std::to_string(gen_ms.size())},
        {"workloads.gen_share", ratio(gen, traced_ms), "ratio", "of traced wall"},
        {"workloads.gen_ns_per_access", ratio(gen * 1e6, acc), "ns", "per simulated access"},
        {"workloads.tasks", cnt(first_pass.gen.calls), "count", "gen_task calls"},
        {"workloads.input_cache_hits", cnt(cache.hits), "count", "one cold set-up"},
        {"workloads.input_cache_misses", cnt(cache.misses), "count", "one cold set-up"},
        {"core.engine_ms", traced_ms - gen, "ms", "traced wall - gen_ms"},
        {"core.engine_ns_per_access", ratio((traced_ms - gen) * 1e6, acc), "ns", ""},
        {"core.far_faults", cnt(s.far_faults), "count", ""},
        {"core.fault_batches", cnt(s.fault_batches), "count", ""},
        {"core.faults_per_batch", ratio(cnt(c.batched_faults), cnt(c.fault_batches)), "ratio",
         of(c.batched_faults, c.fault_batches)},
        {"core.faults_per_s", ratio(cnt(s.far_faults), untraced_s), "1/s", "untraced wall"},
        {"core.replayed_accesses", cnt(s.replayed_accesses), "count", ""},
        {"core.remote_share", ratio(cnt(s.remote_accesses), acc), "ratio",
         of(s.remote_accesses, s.total_accesses)},
        {"core.fault_wait_p50_cycles", cnt(fault_wait.percentile(50)), "cycles", fw_n},
        {"core.fault_wait_p99_cycles", cnt(fault_wait.percentile(99)), "cycles", fw_n},
        {"policy.decide_migrate", cnt(s.decide_migrate), "count", ""},
        {"policy.decide_remote", cnt(s.decide_remote), "count", ""},
        {"policy.migrate_ratio", ratio(cnt(s.decide_migrate), cnt(s.decide_migrate + s.decide_remote)),
         "ratio", of(s.decide_migrate, s.decide_migrate + s.decide_remote)},
        {"policy.write_forced", cnt(s.write_forced_migrations), "count", ""},
        {"policy.counter_halvings", cnt(s.counter_halvings), "count", ""},
        {"mem.evictions", cnt(s.evictions), "count", ""},
        {"mem.victims_per_eviction", ratio(cnt(c.victims), cnt(c.evictions)), "ratio",
         of(c.victims, c.evictions)},
        {"mem.pages_evicted", cnt(s.pages_evicted), "count", ""},
        {"mem.writeback_pages", cnt(s.writeback_pages), "count", ""},
        {"mem.distinct_pages_thrashed", cnt(s.distinct_pages_thrashed), "count", ""},
        {"mem.wasted_migration_ratio", ratio(cnt(c.wasted), cnt(c.migrations)), "ratio",
         of(c.wasted, c.migrations)},
        {"prefetch.blocks_prefetched", cnt(s.blocks_prefetched), "count", ""},
        {"prefetch.useful_ratio", ratio(cnt(c.prefetched_used), cnt(c.prefetched)), "ratio",
         of(c.prefetched_used, c.prefetched)},
        {"xfer.h2d_mb", cnt(s.bytes_h2d) / kMiB, "MB", ""},
        {"xfer.d2h_mb", cnt(s.bytes_d2h) / kMiB, "MB", ""},
        {"xfer.migration_wait_p50_cycles", cnt(mig_wait.percentile(50)), "cycles", mw_n},
        {"xfer.migration_wait_p99_cycles", cnt(mig_wait.percentile(99)), "cycles", mw_n},
        {"gpu.accesses", acc, "count", ""},
        {"gpu.tlb_hit_ratio", ratio(cnt(s.tlb_hits), cnt(s.tlb_hits + s.tlb_misses)), "ratio",
         of(s.tlb_hits, s.tlb_hits + s.tlb_misses)},
        {"sim.batch_wall_ms", wall_ms, "ms", "untraced, measured, jobs=" + std::to_string(spec.jobs)},
        {"sim.cell_wall_sum_ms", cell_sum, "ms", std::to_string(spec.cells.size()) + " cells"},
        {"sim.slowest_cell_ms", median(slowest), "ms", ""},
        {"sim.parallel_efficiency", ratio(cell_sum, wall_ms * spec.jobs), "ratio",
         "cell sum / (batch wall x jobs)"},
        {"obs.trace_overhead", ratio(traced_ms, cell_sum), "ratio",
         spec.jobs > 1 ? "traced serial wall / untraced cell wall sum (cells ran " +
                             std::to_string(spec.jobs) + " at a time)"
                       : "traced serial wall / untraced cell wall sum"},
        {"bench.ref_probe_ms", mean(ref_ms), "ms",
         "mean of " + std::to_string(ref_ms.size()) + " on " + std::to_string(spec.jobs) + " thread(s)"},
        {"bench.cpu_probe_ms", median(cpu_ms), "ms", "median of " + std::to_string(cpu_ms.size())},
        {"bench.l3_probe_ms", median(l3_ms), "ms", "median of " + std::to_string(l3_ms.size())},
    };
    std::printf("# per-layer metrics (traced run)\n");
    print_layers(metrics);
  }
  for (Metric& m : metrics) {
    if (!ledger.check(std::isfinite(m.value), m.name + " is not a finite number")) m.value = 0.0;
  }
  for (const std::string& e : ledger.errors) std::printf("# FAILED: %s\n", e.c_str());
  print_result(ledger, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
