// segbench: the SegDB serving benchmark. One process runs one workload at
// one seed and prints one JSON report line on stdout (run.py turns it into
// the benchmark result). The served path, through public APIs only:
//
//   client -> core::QueryEngine::Serve -> core::DurableEngine
//          -> two-level index (Solution A or B) -> io::BufferPool
//          -> io::FileDiskManager (+ io::WriteAheadLog on the same device)
//
// A run (README.md explains each choice):
//   inputs   GenMapLayer + GenVsQueries from --seed only;
//   setup    file create + DurableEngine::Create + logged BulkLoad +
//            warm-up, kSetups times, each a fresh stack with one job:
//   - first stack: the exact phases
//       cold   the paper's I/O measure: per query FlushAll, EvictAll,
//              ResetStats, one Query, count pool misses;
//       probe  a fixed alternating Insert/Erase sequence, single client
//              (device, WAL and pool counts per mutation);
//   - last stack: the workload's closed-loop traffic for --seconds (a
//     traced run uses the last two: recording off, then on);
//   gate     after the probe and after each timed phase: a fixed query
//            sample against baseline::OracleIndex over the live set, then
//            CheckInvariants().
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baseline/oracle.h"
#include "core/durable_engine.h"
#include "core/query_engine.h"
#include "core/two_level_binary_index.h"
#include "core/two_level_interval_index.h"
#include "io/buffer_pool.h"
#include "io/column_codec.h"
#include "io/file_disk_manager.h"
#include "trace.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segbench {
namespace {

using segdb::Status;
using segdb::core::DurableEngine;
using segdb::core::SegmentIndex;
using segdb::core::VerticalSegmentQuery;
using segdb::geom::Segment;

constexpr uint32_t kPageSize = 4096;
constexpr int64_t kLayerWidth = int64_t{1} << 22;
constexpr double kQueryHeight = 0.01;  // GenVsQueries at 1 % height
constexpr uint64_t kServeQueries = 4096;
constexpr uint64_t kMinBeyond = 10;  // samples a percentile needs past it
// Timings are reported as the median over up to kGroups consecutive slices
// of a phase (README.md, "Steadiness").
constexpr uint64_t kGroups = 20;
// Stacks built per run; setup_s is their median. The first runs the exact
// phases, the last the timed phase (a traced run: the last two).
constexpr uint32_t kSetups = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t n = 262144;
  uint64_t probe_ops = 3000;  // inserts, and as many erases
  uint64_t cold_queries = 4000;
  uint64_t gate_queries = 200;
  std::string data_dir = ".bench_build/segbench-data";
};

struct Workload {
  const char* name;
  bool solution_b;
  size_t frames;
  size_t tier_bytes;
  uint32_t clients;  // closed-loop Serve clients
};

constexpr Workload kWorkloads[] = {
    {"read_warm", true, 32768, 0, 2},
    {"read_cold", false, 1024, size_t{1} << 20, 2},
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "segbench: %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Must(segdb::Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest rank (1-based) of the pct-th percentile among n samples, and the
// number of samples beyond it.
uint64_t Rank(uint64_t n, uint64_t pct) { return (pct * n + 99) / 100; }
uint64_t Beyond(uint64_t n, uint64_t pct) { return n - Rank(n, pct); }

// One client-observed latency, kept in completion order.
struct Sample {
  int64_t done_ns = 0;
  double us = 0;  // +inf for a failed operation
};

// FNV-1a over raw words: input and answer digests for the repeatability
// tests.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void Add(const Segment& s) {
    Add(static_cast<uint64_t>(s.x1));
    Add(static_cast<uint64_t>(s.y1));
    Add(static_cast<uint64_t>(s.x2));
    Add(static_cast<uint64_t>(s.y2));
    Add(s.id);
  }
};

// ---------------------------------------------------------------- inputs

struct Inputs {
  std::vector<Segment> loaded;  // bulk-loaded
  std::vector<Segment> held;    // held-out quarter: the insert supply
  std::vector<VerticalSegmentQuery> serve, cold, gate;
  uint64_t digest = 0;
};

Inputs MakeInputs(const Options& o) {
  segdb::Rng rng(o.seed);
  std::vector<Segment> layer =
      segdb::workload::GenMapLayer(rng, o.n + o.n / 3, kLayerWidth);
  for (size_t i = layer.size(); i > 1; --i) {
    std::swap(layer[i - 1], layer[rng.Uniform(i)]);
  }
  Inputs in;
  in.loaded.assign(layer.begin(), layer.begin() + static_cast<long>(o.n));
  in.held.assign(layer.begin() + static_cast<long>(o.n), layer.end());
  const segdb::workload::BoundingBox box =
      segdb::workload::ComputeBoundingBox(layer);
  auto gen = [&](uint64_t count) {
    std::vector<VerticalSegmentQuery> out;
    for (const segdb::workload::VsQuery& q :
         segdb::workload::GenVsQueries(rng, count, box, kQueryHeight)) {
      out.push_back(VerticalSegmentQuery::Segment(q.x0, q.ylo, q.yhi));
    }
    return out;
  };
  in.serve = gen(kServeQueries);
  in.cold = gen(o.cold_queries);
  in.gate = gen(o.gate_queries);
  Digest d;
  for (const Segment& s : layer) d.Add(s);
  for (const auto* qs : {&in.serve, &in.cold, &in.gate}) {
    for (const VerticalSegmentQuery& q : *qs) {
      d.Add(static_cast<uint64_t>(q.x0));
      d.Add(static_cast<uint64_t>(q.ylo));
      d.Add(static_cast<uint64_t>(q.yhi));
    }
  }
  in.digest = d.h;
  return in;
}

// ------------------------------------------------------------ the stack

// One served database. Members are declared in construction order, so
// they are destroyed engine first, device last.
struct Stack {
  std::unique_ptr<segdb::io::FileDiskManager> file;
  std::unique_ptr<TracedDisk> traced_disk;  // traced runs only
  std::unique_ptr<segdb::io::BufferPool> pool;
  std::unique_ptr<DurableEngine> engine;
  std::unique_ptr<TracedIndex> traced_engine;  // traced runs only
  segdb::io::DiskManager* device = nullptr;    // what pool and engine use
  SegmentIndex* front = nullptr;               // what clients call
  segdb::io::CodecStats codec;                 // bulk-load encodes
};

std::unique_ptr<Stack> BuildStack(const Workload& w, const Options& o,
                                  const Inputs& in, const std::string& path) {
  std::remove(path.c_str());
  auto s = std::make_unique<Stack>();
  segdb::io::FileDiskManagerOptions fo;
  fo.page_size = kPageSize;
  fo.direct = segdb::io::FileDiskManagerOptions::Direct::kOff;
  s->file = Must(segdb::io::FileDiskManager::Open(path, fo), "open data file");
  s->device = s->file.get();
  if (o.trace) {
    s->traced_disk = std::make_unique<TracedDisk>(s->file.get());
    s->device = s->traced_disk.get();
  }
  // Explicit options: SEGDB_COMPRESSED_TIER_BYTES cannot change a run.
  segdb::io::BufferPoolOptions po;
  po.compressed_tier_bytes = w.tier_bytes;
  s->pool = std::make_unique<segdb::io::BufferPool>(s->device, w.frames, po);
  const bool trace = o.trace;
  const bool solution_b = w.solution_b;
  DurableEngine::IndexFactory factory =
      [trace, solution_b](segdb::io::BufferPool* pool)
      -> std::unique_ptr<SegmentIndex> {
    std::unique_ptr<SegmentIndex> inner;
    if (solution_b) {
      inner = std::make_unique<segdb::core::TwoLevelIntervalIndex>(pool);
    } else {
      inner = std::make_unique<segdb::core::TwoLevelBinaryIndex>(pool);
    }
    if (!trace) return inner;
    return std::make_unique<TracedIndex>(std::move(inner), Layer::kIndex);
  };
  s->engine = Must(DurableEngine::Create(s->pool.get(), s->device, factory),
                   "DurableEngine::Create");
  s->front = s->engine.get();
  if (o.trace) {
    s->traced_engine =
        std::make_unique<TracedIndex>(s->engine.get(), Layer::kDurableEngine);
    s->front = s->traced_engine.get();
  }
  segdb::io::ResetGlobalCodecStats();
  Check(s->front->BulkLoad(in.loaded), "logged BulkLoad");
  s->codec = segdb::io::GlobalCodecStats();
  return s;
}

// One untimed pass over the serving queries: fills the pool (read_warm) or
// brings it to its steady miss rate (read_cold).
void Warm(Stack& s, const Inputs& in) {
  std::vector<Segment> out;
  for (const VerticalSegmentQuery& q : in.serve) {
    out.clear();
    Check(s.front->Query(q, &out), "warm-up query");
  }
}

// Forces the page-cached writes of earlier phases to stable storage, so a
// measured phase does not pay for them in its first barrier.
void Settle(Stack& s) { Check(s.file->Sync(), "settle Sync"); }

// ------------------------------------------------------------ counters

struct Counters {
  segdb::io::BufferPoolStats pool;
  segdb::io::DiskStats disk;
  segdb::io::WalStats wal;
};

Counters Snapshot(const Stack& s) {
  return Counters{s.pool->stats(), s.file->stats(), s.engine->wal_stats()};
}

// b - a, field by field (the gauges of BufferPoolStats are not used).
Counters Delta(const Counters& a, const Counters& b) {
  Counters d;
  d.pool.fetches = b.pool.fetches - a.pool.fetches;
  d.pool.hits = b.pool.hits - a.pool.hits;
  d.pool.misses = b.pool.misses - a.pool.misses;
  d.pool.writebacks = b.pool.writebacks - a.pool.writebacks;
  d.pool.prefetches = b.pool.prefetches - a.pool.prefetches;
  d.pool.spills = b.pool.spills - a.pool.spills;
  d.pool.compressed_hits = b.pool.compressed_hits - a.pool.compressed_hits;
  d.pool.compressed_stores =
      b.pool.compressed_stores - a.pool.compressed_stores;
  d.disk.reads = b.disk.reads - a.disk.reads;
  d.disk.writes = b.disk.writes - a.disk.writes;
  d.disk.syncs = b.disk.syncs - a.disk.syncs;
  d.wal.commits = b.wal.commits - a.wal.commits;
  d.wal.syncs = b.wal.syncs - a.wal.syncs;
  d.wal.pages_written = b.wal.pages_written - a.wal.pages_written;
  d.wal.checkpoints = b.wal.checkpoints - a.wal.checkpoints;
  return d;
}

// ------------------------------------------------------- cold protocol

struct Cold {
  uint64_t sum = 0;
  uint64_t max = 0;
  uint64_t p99 = 0;  // nearest rank over the fixed query set
  uint64_t answers = 0;  // digest of the sorted answer ids
};

Cold RunCold(Stack& s, const Inputs& in) {
  Cold c;
  Digest d;
  std::vector<Segment> out;
  std::vector<uint64_t> ids;
  std::vector<uint64_t> per_query;
  for (const VerticalSegmentQuery& q : in.cold) {
    Check(s.pool->FlushAll(), "cold FlushAll");
    Check(s.pool->EvictAll(), "cold EvictAll");
    s.pool->ResetStats();
    out.clear();
    Check(s.front->Query(q, &out), "cold query");
    const uint64_t misses = s.pool->stats().misses;
    c.sum += misses;
    c.max = std::max(c.max, misses);
    per_query.push_back(misses);
    ids.clear();
    for (const Segment& seg : out) ids.push_back(seg.id);
    std::sort(ids.begin(), ids.end());
    d.Add(ids.size());
    for (uint64_t id : ids) d.Add(id);
  }
  c.answers = d.h;
  std::sort(per_query.begin(), per_query.end());
  c.p99 = per_query[Rank(per_query.size(), 99) - 1];
  return c;
}

// ------------------------------------------------------------- mutations

// The mutation stream: inserts take the held-out quarter in order, erases
// take uniformly random still-present bulk-loaded segments, so the stored
// set stays a subset of one NCT layer and its size stays near n.
struct Churn {
  explicit Churn(const Inputs& in, uint64_t seed)
      : rng(seed ^ 0x5e6b3c1d2a4f8e97ULL),
        erasable(in.loaded),
        held(&in.held) {}

  Segment NextInsert() {
    if (next_insert >= held->size()) Die("held-out insert supply exhausted");
    const Segment s = (*held)[next_insert++];
    inserted.push_back(s);
    return s;
  }
  Segment NextErase() {
    if (erasable.empty()) Die("nothing left to erase");
    const size_t i = rng.Uniform(erasable.size());
    std::swap(erasable[i], erasable.back());
    const Segment s = erasable.back();
    erasable.pop_back();
    erased.push_back(s.id);
    return s;
  }
  // A failed mutation commits nothing (DurableEngine is fault-atomic), so
  // the live set the gate checks against must not record it either.
  void Failed(bool insert, const Segment& s) {
    if (insert) {
      inserted.pop_back();
    } else {
      erased.pop_back();
      erasable.push_back(s);
    }
  }

  segdb::Rng rng;
  std::vector<Segment> erasable;
  const std::vector<Segment>* held;
  size_t next_insert = 0;
  std::vector<Segment> inserted;
  std::vector<uint64_t> erased;
};

struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Probe {
  std::vector<Sample> insert_us, erase_us;
  int64_t client_ns = 0;  // summed client-side latency, failures included
  Counters delta;
  uint64_t mutations = 0;
  std::unique_ptr<SpanBuffer> spans;  // traced runs only
};

// The next mutation of `churn`, timed from the client: an acknowledged
// Insert/Erase returns after the WAL barrier, so this is the durable
// latency. Returns whether it succeeded.
bool TimedMutation(SegmentIndex* front, bool insert, Churn* churn,
                   std::vector<Sample>* us, int64_t* client_ns) {
  const Segment seg = insert ? churn->NextInsert() : churn->NextErase();
  const int64_t t0 = NowNs();
  const Status st = insert ? front->Insert(seg) : front->Erase(seg);
  const int64_t t1 = NowNs();
  us->push_back(Sample{t1, st.ok() ? Micros(t1 - t0) : INFINITY});
  *client_ns += t1 - t0;
  if (!st.ok()) churn->Failed(insert, seg);
  return st.ok();
}

Probe RunProbe(Stack& s, const Options& o, Churn* churn, OpTally* tally) {
  Probe p;
  std::unique_ptr<SpanBuffer::Scope> scope;
  if (o.trace) {
    p.spans = std::make_unique<SpanBuffer>(0, o.probe_ops * 64);
    scope = std::make_unique<SpanBuffer::Scope>(p.spans.get());
  }
  const Counters before = Snapshot(s);
  for (uint64_t i = 0; i < o.probe_ops; ++i) {
    tally->attempted += 2;
    if (!TimedMutation(s.front, true, churn, &p.insert_us, &p.client_ns)) {
      ++tally->failed;
    }
    if (!TimedMutation(s.front, false, churn, &p.erase_us, &p.client_ns)) {
      ++tally->failed;
    }
  }
  p.delta = Delta(before, Snapshot(s));
  p.mutations = 2 * o.probe_ops;
  return p;
}

// ---------------------------------------------------------- timed phase

// Completed operations per time window of a timed phase.
struct Windows {
  int64_t start_ns = 0;
  int64_t window_ns = 1;
  std::vector<double> ops = std::vector<double>(kGroups, 0.0);
  void Add(int64_t done_ns) {
    const uint64_t w = static_cast<uint64_t>((done_ns - start_ns) / window_ns);
    ops[std::min<uint64_t>(w, kGroups - 1)] += 1;
  }
};

struct Phase {
  Windows windows;
  // CPU time the clients got, over clients x phase length: below 1 when
  // the machine took cores away (a context field, not a metric).
  double cpu_share = 0;
  uint64_t completed = 0;  // successful queries
  uint64_t queries = 0;
  uint64_t results = 0;
  int64_t client_ns = 0;  // summed client-side latency, failures included
  std::vector<Sample> query_us;  // completion order
  Counters counters;
  segdb::io::IoSchedulerStats sched;
  segdb::core::ServingStats serving;
  std::vector<std::unique_ptr<SpanBuffer>> spans;  // traced phase only
};

struct ClientLog {
  std::vector<Sample> query_us;
  Windows windows;
  double cpu_s = 0;
  int64_t client_ns = 0;
  uint64_t completed = 0;
  uint64_t results = 0;
  uint64_t failed = 0;
};

double ThreadCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// `w.clients` closed-loop clients on Serve for --seconds.
Phase RunTimed(Stack& s, const Workload& w, const Options& o, const Inputs& in,
               bool record, OpTally* tally) {
  Phase ph;
  segdb::core::QueryEngineOptions qo;
  qo.threads = 1;  // Serve runs on the calling client thread
  qo.max_concurrent = w.clients;
  qo.max_queue = 64;
  segdb::core::QueryEngine engine(qo);
  const int64_t budget_ns = static_cast<int64_t>(o.seconds * 1e9);
  ph.windows.window_ns = std::max<int64_t>(1, budget_ns / kGroups);
  // Reserved, not touched: only the samples a phase takes count towards
  // peak RSS.
  const size_t reserve = static_cast<size_t>(o.seconds * 60000);
  s.file->ResetSchedulerStats();
  const Counters before = Snapshot(s);

  std::vector<ClientLog> logs(w.clients);
  for (uint32_t c = 0; c < w.clients; ++c) {
    logs[c].query_us.reserve(reserve);
    logs[c].windows = ph.windows;
    if (record) {
      ph.spans.push_back(std::make_unique<SpanBuffer>(c + 1, reserve * 4));
    }
  }
  std::latch ready(w.clients + 1);
  std::atomic<int64_t> start_ns{0};
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      SpanBuffer::Scope scope(record ? ph.spans[c].get() : nullptr);
      ClientLog& log = logs[c];
      std::vector<Segment> out;
      size_t next = (in.serve.size() / w.clients) * c;
      ready.arrive_and_wait();
      log.windows.start_ns = start_ns.load();
      const int64_t end = log.windows.start_ns + budget_ns;
      const double cpu0 = ThreadCpuSeconds();
      while (NowNs() < end) {
        const VerticalSegmentQuery& q = in.serve[next++ % in.serve.size()];
        out.clear();
        const int64_t t0 = NowNs();
        Status st;
        {
          ScopedSpan span(SpanName::kServe);
          st = engine.Serve(*s.front, q, &out);
        }
        const int64_t t1 = NowNs();
        log.query_us.push_back(
            Sample{t1, st.ok() ? Micros(t1 - t0) : INFINITY});
        log.client_ns += t1 - t0;
        if (st.ok()) {
          ++log.completed;
          log.results += out.size();
          log.windows.Add(t1);
        } else {
          ++log.failed;
        }
      }
      log.cpu_s = ThreadCpuSeconds() - cpu0;
    });
  }
  start_ns.store(NowNs());
  ready.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  for (ClientLog& log : logs) {
    ph.query_us.insert(ph.query_us.end(), log.query_us.begin(),
                       log.query_us.end());
    for (uint64_t i = 0; i < kGroups; ++i) {
      ph.windows.ops[i] += log.windows.ops[i];
    }
    ph.cpu_share += log.cpu_s / (w.clients * Seconds(budget_ns));
    ph.client_ns += log.client_ns;
    ph.completed += log.completed;
    ph.results += log.results;
    ph.queries += log.completed + log.failed;
    tally->attempted += log.completed + log.failed;
    tally->failed += log.failed;
  }
  std::sort(ph.query_us.begin(), ph.query_us.end(),
            [](const Sample& a, const Sample& b) {
              return a.done_ns < b.done_ns;
            });
  ph.counters = Delta(before, Snapshot(s));
  ph.sched = s.file->scheduler_stats();
  ph.serving = engine.serving_stats();
  return ph;
}

// Throughput: the median over kGroups equal time windows of the phase of
// the operations completed per second.
double WindowedRate(const Phase& ph) {
  return Median(ph.windows.ops) / Seconds(ph.windows.window_ns);
}

// ------------------------------------------------------------------ gate

// Compares a fixed query sample as sorted id-sets against OracleIndex over
// the live set (bulk load minus erased plus inserted), then audits.
std::vector<std::string> RunGate(Stack& s, const Inputs& in,
                                 const Churn& churn, uint64_t* answers) {
  std::vector<std::string> errors;
  std::unordered_set<uint64_t> erased(churn.erased.begin(),
                                      churn.erased.end());
  std::vector<Segment> live;
  live.reserve(in.loaded.size() + churn.inserted.size());
  for (const Segment& seg : in.loaded) {
    if (erased.count(seg.id) == 0) live.push_back(seg);
  }
  live.insert(live.end(), churn.inserted.begin(), churn.inserted.end());
  segdb::baseline::OracleIndex oracle;
  Check(oracle.BulkLoad(live), "oracle BulkLoad");
  if (s.front->size() != oracle.size()) {
    errors.push_back("size " + std::to_string(s.front->size()) +
                     " != oracle " + std::to_string(oracle.size()));
  }
  Digest d;
  std::vector<Segment> got, want;
  for (size_t i = 0; i < in.gate.size(); ++i) {
    got.clear();
    want.clear();
    const Status st = s.front->Query(in.gate[i], &got);
    Check(oracle.Query(in.gate[i], &want), "oracle query");
    std::vector<uint64_t> a, b;
    for (const Segment& seg : got) a.push_back(seg.id);
    for (const Segment& seg : want) b.push_back(seg.id);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (!st.ok() || a != b) {
      errors.push_back("gate query " + std::to_string(i) + ": " +
                       (st.ok() ? std::to_string(a.size()) + " ids, oracle " +
                                      std::to_string(b.size())
                                : st.ToString()));
    }
    d.Add(b.size());
    for (uint64_t id : b) d.Add(id);
  }
  *answers = d.h;
  const Status audit = s.engine->CheckInvariants();
  if (!audit.ok()) errors.push_back("CheckInvariants: " + audit.ToString());
  const Status pool_audit = s.pool->CheckInvariants();
  if (!pool_audit.ok()) {
    errors.push_back("BufferPool::CheckInvariants: " + pool_audit.ToString());
  }
  return errors;
}

// ------------------------------------------------------------ span stats

struct SpanStats {
  std::vector<Sample> admit_wait_us, query_overhead_us, commit_us;
  std::vector<Sample> index_query_us, index_insert_us, index_erase_us;
  std::vector<Sample> disk_read_us, disk_sync_us;
  double disk_write_us = 0;
  uint64_t batch_pages = 0;
  uint64_t spans = 0;
  uint64_t roots = 0;
  uint64_t mutations = 0;  // durable.insert / durable.erase spans
  int64_t self_ns[static_cast<size_t>(Layer::kCount)] = {};
  uint64_t nesting_errors = 0;
};

// Puts every sample list of `st` in completion order.
void SortByCompletion(SpanStats* st) {
  for (std::vector<Sample>* v :
       {&st->admit_wait_us, &st->query_overhead_us, &st->commit_us,
        &st->index_query_us, &st->index_insert_us, &st->index_erase_us,
        &st->disk_read_us, &st->disk_sync_us}) {
    std::sort(v->begin(), v->end(), [](const Sample& a, const Sample& b) {
      return a.done_ns < b.done_ns;
    });
  }
}

void Summarize(const SpanBuffer& buffer, SpanStats* st) {
  const std::vector<Span>& spans = buffer.spans();
  std::vector<int64_t> child_ns(spans.size(), 0), index_ns(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    if (sp.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(sp.parent)];
    if (sp.start_ns < parent.start_ns || sp.end_ns > parent.end_ns) {
      ++st->nesting_errors;
    }
    child_ns[static_cast<size_t>(sp.parent)] += sp.end_ns - sp.start_ns;
    if (LayerOf(sp.name) == Layer::kIndex) {
      index_ns[static_cast<size_t>(sp.parent)] += sp.end_ns - sp.start_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    const int64_t dur = sp.end_ns - sp.start_ns;
    ++st->spans;
    st->self_ns[static_cast<size_t>(LayerOf(sp.name))] += dur - child_ns[i];
    if (sp.parent < 0) ++st->roots;
    switch (sp.name) {
      case SpanName::kServe:
        st->admit_wait_us.push_back(
            Sample{sp.end_ns, Micros(dur - child_ns[i])});
        break;
      case SpanName::kDurableQuery:
        st->query_overhead_us.push_back(
            Sample{sp.end_ns, Micros(dur - index_ns[i])});
        break;
      case SpanName::kDurableInsert:
      case SpanName::kDurableErase:
        st->commit_us.push_back(Sample{sp.end_ns, Micros(dur - index_ns[i])});
        ++st->mutations;
        break;
      case SpanName::kIndexQuery:
        st->index_query_us.push_back(Sample{sp.end_ns, Micros(dur)});
        break;
      case SpanName::kIndexInsert:
        st->index_insert_us.push_back(Sample{sp.end_ns, Micros(dur)});
        break;
      case SpanName::kIndexErase:
        st->index_erase_us.push_back(Sample{sp.end_ns, Micros(dur)});
        break;
      case SpanName::kDiskRead:
        st->disk_read_us.push_back(Sample{sp.end_ns, Micros(dur)});
        break;
      case SpanName::kDiskSync:
        st->disk_sync_us.push_back(Sample{sp.end_ns, Micros(dur)});
        break;
      case SpanName::kDiskWrite:
      case SpanName::kDiskWritePrefix:
        st->disk_write_us += Micros(dur);
        break;
      case SpanName::kDiskPeekBatch:
        st->batch_pages += sp.arg;
        break;
      default:
        break;
    }
  }
}

// The layers' self times over a traced phase must account for the time
// its clients measured around the same requests, with clocks read outside
// every span: one root span per request, a total no larger than the
// clients', and short of it by at most kSelfSlack of it (the clients' own
// clock reads and the outer adapter's forwarding). Returns the sum in ns.
constexpr double kSelfSlack = 0.01;

int64_t CheckSelfTimes(const char* phase, const SpanStats& st,
                       uint64_t requests, int64_t client_ns,
                       std::vector<std::string>* errors) {
  int64_t self_ns = 0;
  for (int64_t ns : st.self_ns) self_ns += ns;
  const std::string where = std::string(phase) + ": ";
  if (st.roots != requests) {
    errors->push_back(where + std::to_string(st.roots) + " root spans for " +
                      std::to_string(requests) + " requests");
  }
  if (self_ns > client_ns ||
      static_cast<double>(client_ns - self_ns) >
          kSelfSlack * static_cast<double>(client_ns)) {
    errors->push_back(where + "layer self times sum to " +
                      std::to_string(self_ns) + " ns, the clients measured " +
                      std::to_string(client_ns) + " ns");
  }
  if (st.nesting_errors > 0) {
    errors->push_back(where + "spans outside their parent's interval");
  }
  return self_ns;
}

// --------------------------------------------------------------- report

// What a metric's value is, so run.py can check the unit against it: a
// time field holds a clock reading, never a count.
enum class Kind { kTime, kCount, kRatio, kRate, kBytes };

const char* KindString(Kind k) {
  switch (k) {
    case Kind::kTime: return "time";
    case Kind::kCount: return "count";
    case Kind::kRatio: return "ratio";
    case Kind::kRate: return "rate";
    case Kind::kBytes: return "bytes";
  }
  return "?";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class Report {
 public:
  // A plain value. Non-finite values are a benchmark bug.
  void Add(const std::string& name, double value, const char* unit,
           Kind kind) {
    if (!std::isfinite(value)) Die("metric " + name + " is not finite");
    entries_.emplace_back(name, value, unit, kind);
  }

  // value / base, or 0 flagged as having no base.
  void Ratio(const std::string& name, double value, double base,
             const char* unit, Kind kind) {
    if (base > 0) {
      Add(name, value / base, unit, kind);
      return;
    }
    Entry e(name, 0.0, unit, kind);
    e.flag = "no denominator (0 operations)";
    entries_.push_back(e);
  }

  // The pct-th percentile of latencies given in completion order: the
  // samples are cut into as many consecutive groups as leave each at least
  // kMinBeyond samples beyond it (at most kGroups), and the value is the
  // median of the groups' nearest-rank percentiles. With no such group the
  // percentile is flagged, value 0.
  void Percentile(const std::string& name, const std::vector<Sample>& in,
                  uint64_t pct) {
    Entry e(name, 0.0, "us", Kind::kTime);
    const uint64_t n = in.size();
    e.samples = n;
    uint64_t groups = std::min(kGroups, n);
    while (groups > 0 && Beyond(n / groups, pct) < kMinBeyond) --groups;
    e.groups = groups;
    std::vector<double> all(n);
    for (uint64_t i = 0; i < n; ++i) {
      all[i] = in[i].us;
      if (std::isfinite(all[i])) e.max = std::max(e.max, all[i]);  // successes
    }
    if (groups == 0) {
      e.beyond = Beyond(n, pct);
      e.flag = std::to_string(e.beyond) + " samples beyond, need " +
               std::to_string(kMinBeyond);
    } else {
      std::vector<double> per_group;
      e.beyond = UINT64_MAX;
      for (uint64_t g = 0; g < groups; ++g) {
        std::vector<double> slice(
            all.begin() + static_cast<long>(g * n / groups),
            all.begin() + static_cast<long>((g + 1) * n / groups));
        std::sort(slice.begin(), slice.end());
        e.beyond = std::min(e.beyond, Beyond(slice.size(), pct));
        per_group.push_back(slice[Rank(slice.size(), pct) - 1]);
      }
      const double value = Median(per_group);
      if (!std::isfinite(value)) {
        e.flag = "failed operations reach this percentile";
      } else {
        e.value = value;
      }
    }
    entries_.push_back(e);
  }

  std::string Json() const {
    std::string out = "[";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (i > 0) out += ",";
      out += "{\"name\":" + Quote(e.name) + ",\"value\":" + Num(e.value) +
             ",\"unit\":" + Quote(e.unit) + ",\"kind\":" +
             Quote(KindString(e.kind));
      if (e.samples != UINT64_MAX) {
        out += ",\"samples\":" + std::to_string(e.samples) +
               ",\"groups\":" + std::to_string(e.groups) +
               ",\"beyond\":" + std::to_string(e.beyond) +
               ",\"max\":" + Num(e.max);
      }
      if (!e.flag.empty()) out += ",\"flagged\":" + Quote(e.flag);
      out += "}";
    }
    return out + "]";
  }

 private:
  struct Entry {
    Entry(std::string n, double v, std::string u, Kind k)
        : name(std::move(n)), value(v), unit(std::move(u)), kind(k) {}
    std::string name;
    double value;
    std::string unit;
    Kind kind;
    uint64_t samples = UINT64_MAX;
    uint64_t groups = 0;
    uint64_t beyond = 0;
    double max = 0;
    std::string flag;
  };
  std::vector<Entry> entries_;
};

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs fs;
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext2/3/4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x2FC12FC1UL: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

bool RefusedBuild(std::string* why) {
#ifndef NDEBUG
  *why = "assertions are on (Debug-like build); configure RelWithDebInfo";
  return true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "sanitizer build";
  return true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  *why = "sanitizer build";
  return true;
#endif
#endif
  if (std::string(SEGBENCH_BUILD_TYPE) == "Debug") {
    *why = "Debug build";
    return true;
  }
  return false;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Mean(double sum, uint64_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

int Run(const Options& o) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (o.workload == cand.name) w = &cand;
  }
  if (w == nullptr) Die("unknown workload '" + o.workload + "'");
  std::string why;
  if (RefusedBuild(&why)) Die("refusing to measure: " + why);
  ::mkdir(o.data_dir.c_str(), 0755);
  const std::string path = o.data_dir + "/" + w->name + ".db";

  // Wall time spent in each phase, for the report (not a metric).
  std::vector<std::pair<const char*, double>> phase_s;
  int64_t mark = NowNs();
  auto lap = [&](const char* phase) {
    const int64_t now = NowNs();
    auto it = std::find_if(phase_s.begin(), phase_s.end(),
                           [&](const auto& e) { return e.first == phase; });
    if (it == phase_s.end()) it = phase_s.insert(phase_s.end(), {phase, 0.0});
    it->second += Seconds(now - mark);
    mark = now;
  };
  const Inputs in = MakeInputs(o);
  // The harness's own share of peak_rss_mb (README.md, "Peak RSS").
  const double inputs_rss_mb = PeakRssMb();
  lap("inputs");

  // Each stack is fresh from its logged bulk load and serves one purpose:
  // the first runs the exact phases (cold, probe); the last runs the timed
  // phase (in a traced run: the last two, untraced then traced), so every
  // timed phase sees the index as loaded.
  const uint32_t exact_stack = 0;
  const uint32_t timed_stack = kSetups - (o.trace ? 2 : 1);
  const uint32_t traced_stack = kSetups - 1;
  std::vector<double> setup_s;
  std::vector<std::string> errors;
  OpTally tally;
  Cold cold;
  Probe probe;
  Phase timed, traced;
  uint64_t loaded_pages = 0, loaded_size = 0, served_pages = 0;
  uint64_t writeback_failures = 0, gate_answers = 0;
  segdb::io::CodecStats codec;
  std::string engine_name, index_name;
  bool direct_io = false;
  for (uint32_t i = 0; i < kSetups; ++i) {
    const int64_t t0 = NowNs();
    std::unique_ptr<Stack> stack = BuildStack(*w, o, in, path);
    Warm(*stack, in);
    setup_s.push_back(Seconds(NowNs() - t0));
    Stack& s = *stack;
    lap("setup");
    Churn churn(in, o.seed + i);
    uint64_t answers = 0;
    if (i == exact_stack) {
      loaded_pages = s.front->page_count();
      loaded_size = s.front->size();
      codec = s.codec;
      engine_name = s.file->engine_name();
      direct_io = s.file->direct_io();
      index_name = s.front->name();
      cold = RunCold(s, in);
      lap("cold");
      Warm(s, in);
      Settle(s);
      probe = RunProbe(s, o, &churn, &tally);
      lap("probe");
      for (std::string& e : RunGate(s, in, churn, &gate_answers)) {
        errors.push_back("after the probe: " + e);
      }
      lap("gate");
    }
    if (i == timed_stack || (o.trace && i == traced_stack)) {
      const bool record = o.trace && i == traced_stack;
      Settle(s);
      Phase& ph = record ? traced : timed;
      ph = RunTimed(s, *w, o, in, record, &tally);
      served_pages = s.front->page_count();
      lap(record ? "traced" : "timed");
      for (std::string& e : RunGate(s, in, churn, &answers)) {
        errors.push_back("after the timed phase: " + e);
      }
      lap("gate");
    }
    writeback_failures += s.engine->writeback_failures();
    stack.reset();
    std::remove(path.c_str());
  }

  // ---- metrics
  Report r;
  r.Add("setup_s", Median(setup_s), "s", Kind::kTime);
  r.Add("ops_per_s", WindowedRate(timed), "ops/s", Kind::kRate);
  r.Percentile("query_p50_us", timed.query_us, 50);
  r.Percentile("query_p99_us", timed.query_us, 99);
  // Mutation latency: the probe's acknowledged durable mutations.
  r.Percentile("insert_p50_us", probe.insert_us, 50);
  r.Percentile("insert_p99_us", probe.insert_us, 99);
  r.Percentile("erase_p50_us", probe.erase_us, 50);
  r.Percentile("erase_p99_us", probe.erase_us, 99);
  r.Add("cold_ios_mean", Mean(static_cast<double>(cold.sum), in.cold.size()),
        "pages/query", Kind::kCount);
  r.Add("cold_ios_p99", static_cast<double>(cold.p99), "pages/query",
        Kind::kCount);
  r.Add("cold_ios_max", static_cast<double>(cold.max), "pages/query",
        Kind::kCount);
  r.Add("space_bytes_per_segment",
        static_cast<double>(loaded_pages) * kPageSize /
            static_cast<double>(loaded_size),
        "B", Kind::kBytes);
  r.Ratio("write_bytes_per_mutation",
          static_cast<double>(probe.delta.disk.writes) * kPageSize,
          static_cast<double>(probe.mutations), "B", Kind::kBytes);
  r.Add("peak_rss_mb", PeakRssMb(), "MiB", Kind::kBytes);
  r.Add("success_ratio",
        static_cast<double>(tally.attempted - tally.failed) /
            static_cast<double>(tally.attempted),
        "ratio", Kind::kRatio);
  r.Add("error_rate",
        static_cast<double>(tally.failed) /
            static_cast<double>(tally.attempted),
        "ratio", Kind::kRatio);

  std::string trace_json = "null";
  if (o.trace) {
    SpanStats t;  // the traced timed phase
    for (const auto& b : traced.spans) Summarize(*b, &t);
    SortByCompletion(&t);
    SpanStats m;  // the probe: every mutation of the run
    Summarize(*probe.spans, &m);
    const Counters& q = traced.counters;
    const double queries = static_cast<double>(traced.queries);
    const double probe_ops = static_cast<double>(probe.mutations);
    const Counters& pd = probe.delta;

    r.Percentile("serve.admit_wait_us.p50", t.admit_wait_us, 50);
    r.Percentile("serve.admit_wait_us.p99", t.admit_wait_us, 99);
    r.Add("serve.shed", static_cast<double>(traced.serving.shed_overload),
          "count", Kind::kCount);
    r.Add("serve.deadline_exceeded",
          static_cast<double>(traced.serving.deadline_exceeded), "count",
          Kind::kCount);
    r.Add("serve.max_queue_depth",
          static_cast<double>(traced.serving.max_queue_depth), "count",
          Kind::kCount);
    r.Percentile("durable.query_overhead_us.p50", t.query_overhead_us, 50);
    r.Percentile("durable.commit_us.p50", m.commit_us, 50);
    r.Percentile("durable.commit_us.p99", m.commit_us, 99);
    r.Add("durable.writeback_failures",
          static_cast<double>(writeback_failures), "count",
          Kind::kCount);
    r.Percentile("index.query_us.p50", t.index_query_us, 50);
    r.Percentile("index.query_us.p99", t.index_query_us, 99);
    r.Percentile("index.insert_us.p50", m.index_insert_us, 50);
    r.Percentile("index.erase_us.p50", m.index_erase_us, 50);
    r.Ratio("index.fetches_per_query", static_cast<double>(q.pool.fetches),
            queries, "pages/query", Kind::kCount);
    r.Ratio("index.results_per_query", static_cast<double>(traced.results),
            queries, "segs/query", Kind::kCount);
    r.Add("index.pages", static_cast<double>(served_pages), "pages",
          Kind::kCount);
    r.Ratio("pool.hit_ratio", static_cast<double>(q.pool.hits),
            static_cast<double>(q.pool.fetches), "ratio", Kind::kRatio);
    r.Ratio("pool.misses_per_query", static_cast<double>(q.pool.misses),
            queries, "pages/query", Kind::kCount);
    r.Ratio("pool.compressed_hits_per_query",
            static_cast<double>(q.pool.compressed_hits), queries,
            "pages/query", Kind::kCount);
    r.Ratio("pool.compressed_stores_per_query",
            static_cast<double>(q.pool.compressed_stores), queries,
            "pages/query", Kind::kCount);
    r.Ratio("pool.prefetches_per_query",
            static_cast<double>(q.pool.prefetches), queries, "pages/query",
            Kind::kCount);
    r.Ratio("pool.writebacks_per_mutation",
            static_cast<double>(pd.pool.writebacks), probe_ops, "pages/op",
            Kind::kCount);
    r.Ratio("pool.spills_per_mutation", static_cast<double>(pd.pool.spills),
            probe_ops, "pages/op", Kind::kCount);
    r.Ratio("codec.compression_ratio",
            static_cast<double>(codec.raw_bytes),
            static_cast<double>(codec.encoded_bytes), "ratio", Kind::kRatio);
    r.Ratio("sched.pages_per_submission",
            static_cast<double>(traced.sched.pages),
            static_cast<double>(traced.sched.submissions), "pages/op",
            Kind::kCount);
    r.Add("sched.merged_pages", static_cast<double>(traced.sched.merged_pages),
          "pages", Kind::kCount);
    r.Add("sched.max_inflight", static_cast<double>(traced.sched.max_inflight),
          "count", Kind::kCount);
    r.Ratio("disk.reads_per_query", static_cast<double>(q.disk.reads),
            queries, "pages/query", Kind::kCount);
    r.Percentile("disk.read_us.p50", t.disk_read_us, 50);
    r.Ratio("disk.batch_pages_per_query", static_cast<double>(t.batch_pages),
            queries, "pages/query", Kind::kCount);
    r.Ratio("disk.writes_per_mutation", static_cast<double>(pd.disk.writes),
            probe_ops, "pages/op", Kind::kCount);
    r.Ratio("disk.write_us_per_mutation", m.disk_write_us,
            static_cast<double>(m.mutations), "us", Kind::kTime);
    r.Ratio("disk.syncs_per_mutation", static_cast<double>(pd.disk.syncs),
            probe_ops, "syncs/op", Kind::kCount);
    r.Percentile("disk.sync_us.p50", m.disk_sync_us, 50);
    const double commits = static_cast<double>(pd.wal.commits);
    r.Ratio("wal.pages_per_commit", static_cast<double>(pd.wal.pages_written),
            commits, "pages/commit", Kind::kCount);
    r.Ratio("wal.syncs_per_commit", static_cast<double>(pd.wal.syncs),
            commits, "syncs/commit", Kind::kCount);
    r.Ratio("wal.checkpoints_per_commit",
            static_cast<double>(pd.wal.checkpoints), commits, "ratio",
            Kind::kRatio);
    const double untraced_rate = WindowedRate(timed);
    const double traced_rate = WindowedRate(traced);
    r.Add("trace.overhead_pct", 100.0 * (untraced_rate - traced_rate) /
                                    untraced_rate,
          "%", Kind::kRatio);
    const double roots = static_cast<double>(t.roots);
    std::string self_json = "{";
    for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
      const Layer layer = static_cast<Layer>(l);
      std::string short_name = LayerString(layer);
      short_name = short_name.substr(short_name.find('.') + 1);
      r.Ratio("self." + short_name + "_us", Micros(t.self_ns[l]), roots, "us",
              Kind::kTime);
      self_json += std::string(l > 0 ? "," : "") + Quote(LayerString(layer)) +
                   ":" + Num(Micros(t.self_ns[l]));
    }
    self_json += "}";
    CheckSelfTimes("traced phase", t, traced.queries, traced.client_ns,
                   &errors);
    const int64_t probe_self_ns = CheckSelfTimes(
        "probe", m, probe.mutations, probe.client_ns, &errors);
    std::vector<std::unique_ptr<SpanBuffer>> all;
    all.push_back(std::move(probe.spans));
    for (auto& b : traced.spans) all.push_back(std::move(b));
    const std::string trace_path =
        o.data_dir + "/" + w->name + "-seed" + std::to_string(o.seed) +
        ".spans";
    if (!WriteSpans(trace_path, all)) Die("cannot write " + trace_path);
    trace_json = "{\"file\":" + Quote(trace_path) +
                 ",\"spans\":" + std::to_string(t.spans + m.spans) +
                 ",\"requests\":" + std::to_string(t.roots) +
                 ",\"client_us\":" + Num(Micros(traced.client_ns)) +
                 ",\"self_us\":" + self_json +
                 ",\"probe_client_us\":" + Num(Micros(probe.client_ns)) +
                 ",\"probe_self_us\":" + Num(Micros(probe_self_ns)) + "}";
  }

  // ---- the report line
  std::ostringstream os;
  os << "{\"workload\":" << Quote(w->name) << ",\"seed\":" << o.seed
     << ",\"trace\":" << (o.trace ? "true" : "false")
     << ",\"correct\":" << (errors.empty() ? "true" : "false")
     << ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    os << (i > 0 ? "," : "") << Quote(errors[i]);
  }
  os << "],\"attempted\":" << tally.attempted << ",\"failed\":" << tally.failed
     << ",\"context\":{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"cpu_model\":" << Quote(CpuModel())
     << ",\"build_type\":" << Quote(SEGBENCH_BUILD_TYPE)
     << ",\"engine_name\":" << Quote(engine_name)
     << ",\"direct_io\":" << (direct_io ? "true" : "false")
     << ",\"data_fs\":" << Quote(FilesystemOf(o.data_dir))
     << ",\"index\":" << Quote(index_name)
     << ",\"pool_frames\":" << w->frames
     << ",\"tier_bytes\":" << w->tier_bytes << ",\"clients\":" << w->clients
     << ",\"n\":" << o.n << ",\"seconds\":" << Num(o.seconds)
     << ",\"timed_cpu_share\":" << Num(timed.cpu_share)
     << ",\"inputs_rss_mb\":" << Num(inputs_rss_mb)
     << ",\"setups\":" << kSetups << ",\"probe_mutations\":"
     << probe.mutations << ",\"cold_queries\":" << in.cold.size()
     << ",\"gate_queries\":" << in.gate.size() << "}"
     << ",\"exact\":{\"inputs\":" << Quote(Hex(in.digest))
     << ",\"cold_answers\":" << Quote(Hex(cold.answers))
     << ",\"cold_ios_sum\":" << cold.sum << ",\"cold_ios_max\":" << cold.max
     << ",\"index_pages\":" << loaded_pages
     << ",\"codec_encoded_bytes\":" << codec.encoded_bytes
     << ",\"probe_disk_writes\":" << probe.delta.disk.writes
     << ",\"probe_disk_syncs\":" << probe.delta.disk.syncs
     << ",\"probe_wal_pages\":" << probe.delta.wal.pages_written
     << ",\"probe_wal_syncs\":" << probe.delta.wal.syncs
     << ",\"probe_wal_commits\":" << probe.delta.wal.commits
     << ",\"probe_wal_checkpoints\":" << probe.delta.wal.checkpoints
     << ",\"probe_pool_spills\":" << probe.delta.pool.spills
     << ",\"gate_answers\":" << Quote(Hex(gate_answers)) << "}"
     << ",\"timed_window_ops\":[";
  const std::vector<double>& windows = timed.windows.ops;
  for (size_t i = 0; i < windows.size(); ++i) {
    os << (i > 0 ? "," : "") << Num(windows[i]);
  }
  os << "],\"phase_s\":{";
  for (size_t i = 0; i < phase_s.size(); ++i) {
    os << (i > 0 ? "," : "") << Quote(phase_s[i].first) << ":"
       << Num(phase_s[i].second);
  }
  os << "},\"setup_runs_s\":[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    os << (i > 0 ? "," : "") << Num(setup_s[i]);
  }
  os << "],\"trace_summary\":" << trace_json << ",\"metrics\":" << r.Json()
     << "}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
  if (!errors.empty()) {
    std::fprintf(stderr,
                 "segbench: %s seed %llu FAILED its correctness checks\n",
                 w->name, static_cast<unsigned long long>(o.seed));
  }
  return 0;
}

uint64_t ParseU64(const char* flag, const char* v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') Die(std::string("bad value for ") + flag);
  return x;
}

}  // namespace
}  // namespace segbench

int main(int argc, char** argv) {
  segbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) segbench::Die("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = segbench::ParseU64("--seed", v);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
      if (!(o.seconds > 0)) segbench::Die("--seconds must be > 0");
    } else if (flag == "--trace") {
      o.trace = segbench::ParseU64("--trace", v) != 0;
    } else if (flag == "--n") {
      o.n = segbench::ParseU64("--n", v);
    } else if (flag == "--probe-ops") {
      o.probe_ops = segbench::ParseU64("--probe-ops", v);
    } else if (flag == "--cold-queries") {
      o.cold_queries = segbench::ParseU64("--cold-queries", v);
    } else if (flag == "--data-dir") {
      o.data_dir = v;
    } else {
      segbench::Die("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) segbench::Die("--workload is required");
  if (o.n < 64 || o.probe_ops == 0 || o.cold_queries == 0) {
    segbench::Die("need --probe-ops and --cold-queries > 0, --n >= 64");
  }
  return segbench::Run(o);
}
