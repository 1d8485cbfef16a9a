// Shared measurement harness for the experiment binaries (E1-E13).
//
// I/O-count protocol: build the structure through the buffer pool, flush,
// evict everything (cold cache), reset counters, run one query, read the
// miss counter — misses are exactly the I/O operations of the paper's cost
// model, and stay exact under the sharded pool (per-shard counters sum to
// the serial trace) and under read-ahead (staged pages are charged on
// first demand fetch). Each experiment averages over a query batch and
// prints one table row per parameter point; EXPERIMENTS.md records the
// expected shapes.
//
// Throughput protocol (the parallel sections of E3/E4): warm the pool by
// running the batch once, then time repeated QueryEngine batches at a
// fixed worker count — wall-clock ns and queries/sec, no eviction between
// queries; the pool's misses over the timed passes are the record's
// avg_ios. Cold I/O counts and warm throughput are reported separately;
// one measures the model, the other the implementation.
//
// Every experiment binary accepts `--json <path>` (or `--json=<path>`) and
// then also writes its records as machine-readable JSON — see JsonWriter
// below and tools/bench.sh, which tracks BENCH_*.json across PRs.
#ifndef SEGDB_BENCH_BENCH_COMMON_H_
#define SEGDB_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/query_engine.h"
#include "core/segment_index.h"
#include "io/buffer_pool.h"
#include "io/column_codec.h"
#include "io/disk_manager.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace segdb::bench {

inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

struct QueryCost {
  double avg_ios = 0;     // cold buffer-pool misses per query
  double max_ios = 0;
  double avg_output = 0;  // reported segments per query
};

// Cold-cache cost of a query batch against any SegmentIndex.
inline QueryCost MeasureQueries(io::BufferPool* pool,
                                const core::SegmentIndex& index,
                                std::span<const workload::VsQuery> queries) {
  QueryCost cost;
  Check(pool->FlushAll(), "flush");
  for (const workload::VsQuery& q : queries) {
    Check(pool->EvictAll(), "evict");
    pool->ResetStats();
    std::vector<geom::Segment> out;
    Check(index.Query(core::VerticalSegmentQuery{q.x0, q.ylo, q.yhi}, &out),
          "query");
    const double ios = static_cast<double>(pool->stats().misses);
    cost.avg_ios += ios;
    cost.max_ios = std::max(cost.max_ios, ios);
    cost.avg_output += static_cast<double>(out.size());
  }
  if (!queries.empty()) {
    cost.avg_ios /= static_cast<double>(queries.size());
    cost.avg_output /= static_cast<double>(queries.size());
  }
  return cost;
}

struct BatchThroughput {
  double wall_ns = 0;           // total wall time of the measured repeats
  double queries_per_sec = 0;
  uint64_t reported = 0;        // total segments reported (sanity check)
  double avg_ios = 0;           // pool misses per query over the timed passes
};

// Warm-pool throughput of QueryEngine batches: one untimed warm-up pass,
// then `repeats` timed passes over the whole batch. `pool` is the index's
// pool; its miss counter over the timed passes gives avg_ios.
inline BatchThroughput MeasureBatchThroughput(
    core::QueryEngine* engine, const core::SegmentIndex& index,
    const io::BufferPool& pool, std::span<const workload::VsQuery> queries,
    int repeats) {
  std::vector<core::VerticalSegmentQuery> batch;
  batch.reserve(queries.size());
  for (const workload::VsQuery& q : queries) {
    batch.push_back(core::VerticalSegmentQuery{q.x0, q.ylo, q.yhi});
  }
  std::vector<std::vector<geom::Segment>> results;
  Check(engine->QueryBatch(index, batch, &results), "warm-up batch");
  BatchThroughput t;
  const uint64_t misses_before = pool.stats().misses;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) {
    Check(engine->QueryBatch(index, batch, &results), "timed batch");
    for (const auto& out : results) t.reported += out.size();
  }
  const auto end = std::chrono::steady_clock::now();
  t.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
  const double total_queries =
      static_cast<double>(queries.size()) * static_cast<double>(repeats);
  if (t.wall_ns > 0) t.queries_per_sec = total_queries / (t.wall_ns * 1e-9);
  if (total_queries > 0) {
    t.avg_ios =
        static_cast<double>(pool.stats().misses - misses_before) /
        total_queries;
  }
  return t;
}

// One machine-readable measurement row (tools/bench.sh trajectory files).
struct BenchRecord {
  std::string experiment;  // e.g. "E3-cold" / "E3-parallel"
  std::string structure;   // index.name()
  uint64_t n = 0;          // segments stored
  uint32_t page_size = 0;  // block size in bytes (determines B)
  uint64_t num_queries = 0;
  double avg_ios = 0;
  // Omitted from the JSON when unset: batch records measure only a mean.
  std::optional<double> max_ios;
  double wall_ns = 0;
  double queries_per_sec = 0;
  uint32_t threads = 1;
  // Column-codec telemetry: raw 40-byte-row bytes over encoded bytes for
  // every leaf region this process encoded (0 = not measured).
  double compression_ratio = 0;
  // Compressed-tier promotions observed during the measured section
  // (nonzero only for the *-tier experiments).
  uint64_t compressed_hits = 0;
  // Serving/device telemetry (the E14 records). Zero or empty fields are
  // OMITTED from the JSON — same rule as wall_ns/queries_per_sec on cold
  // records, so a record only carries the measurements it actually made.
  double p50_ns = 0;  // per-request latency percentiles (Serve calls)
  double p95_ns = 0;
  double p99_ns = 0;
  uint64_t queue_depth = 0;  // peak queue/in-flight depth during the run
  std::string io_backend;    // async engine name: "uring"|"threads"|"sync"
  double io_speedup = 0;     // batched over one-syscall-per-page wall time
};

// p-th percentile (0..100) by nearest-rank over a copy of `samples`.
inline double PercentileNs(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

// Process-wide codec compression ratio so far (0 until something encoded).
inline double CodecCompressionRatio() {
  const io::CodecStats stats = io::GlobalCodecStats();
  if (stats.encoded_bytes == 0) return 0;
  return static_cast<double>(stats.raw_bytes) /
         static_cast<double>(stats.encoded_bytes);
}

// Accumulates BenchRecords and writes them as one JSON document when
// destroyed. Enabled by `--json <path>` / `--json=<path>`; otherwise all
// calls are no-ops and the binary prints tables exactly as before.
class JsonWriter {
 public:
  JsonWriter(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        path_ = argv[i + 1];
      } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
        path_ = argv[i] + 7;
      }
    }
  }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  ~JsonWriter() { Flush(); }

  bool enabled() const { return !path_.empty(); }

  void Add(BenchRecord record) {
    if (enabled()) records_.push_back(std::move(record));
  }

 private:
  void Flush() {
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "FATAL --json: cannot open %s\n", path_.c_str());
      std::abort();
    }
    std::fprintf(f, "{\n  \"hardware_threads\": %u,\n  \"records\": [",
                 std::thread::hardware_concurrency());
    for (size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      std::fprintf(
          f,
          "%s\n    {\"experiment\": \"%s\", \"structure\": \"%s\", "
          "\"n\": %llu, \"page_size\": %u, \"num_queries\": %llu, "
          "\"avg_ios\": %.4f, ",
          i == 0 ? "" : ",", r.experiment.c_str(), r.structure.c_str(),
          static_cast<unsigned long long>(r.n), r.page_size,
          static_cast<unsigned long long>(r.num_queries), r.avg_ios);
      if (r.max_ios.has_value()) {
        std::fprintf(f, "\"max_ios\": %.1f, ", *r.max_ios);
      }
      // A record that measured no wall time (the cold I/O-count rows)
      // carries no wall fields at all — a literal 0 would read as "zero
      // nanoseconds measured", which tools/check_bench_json.py rejects.
      if (r.wall_ns > 0) {
        std::fprintf(f, "\"wall_ns\": %.0f, \"queries_per_sec\": %.2f, ",
                     r.wall_ns, r.queries_per_sec);
      }
      if (r.p99_ns > 0) {
        std::fprintf(f,
                     "\"p50_ns\": %.0f, \"p95_ns\": %.0f, \"p99_ns\": %.0f, ",
                     r.p50_ns, r.p95_ns, r.p99_ns);
      }
      if (r.queue_depth > 0) {
        std::fprintf(f, "\"queue_depth\": %llu, ",
                     static_cast<unsigned long long>(r.queue_depth));
      }
      if (!r.io_backend.empty()) {
        std::fprintf(f, "\"io_backend\": \"%s\", ", r.io_backend.c_str());
      }
      if (r.io_speedup > 0) {
        std::fprintf(f, "\"io_speedup\": %.3f, ", r.io_speedup);
      }
      std::fprintf(
          f,
          "\"threads\": %u, \"compression_ratio\": %.4f, "
          "\"compressed_hits\": %llu}",
          r.threads, r.compression_ratio,
          static_cast<unsigned long long>(r.compressed_hits));
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
  }

  std::string path_;
  std::vector<BenchRecord> records_;
};

// Repeats rows with a standard experiment banner.
inline void PrintHeader(const char* id, const char* claim) {
  std::printf("==== %s ====\n%s\n\n", id, claim);
}

inline void PrintTable(const TablePrinter& table) {
  table.Print(std::cout);
  std::printf("\n");
}

// Benchmarks honor SEGDB_BENCH_SCALE (e.g. 0.1 for smoke runs).
inline double Scale() {
  const char* s = std::getenv("SEGDB_BENCH_SCALE");
  return s != nullptr ? std::atof(s) : 1.0;
}

inline uint64_t Scaled(uint64_t n) {
  const double v = static_cast<double>(n) * Scale();
  return v < 64 ? 64 : static_cast<uint64_t>(v);
}

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// Worker counts for the parallel sections. The default covers the tracked
// trajectory files; `--scaling` (tools/bench.sh --scaling) extends the
// sweep in powers of two past the hardware thread count to expose the
// saturation knee.
inline std::vector<uint32_t> ParallelThreadCounts(bool scaling) {
  if (!scaling) return {1u, 2u, 4u, 8u};
  uint32_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 8;
  std::vector<uint32_t> counts;
  for (uint32_t t = 1; t <= 2 * hw || t <= 8; t *= 2) counts.push_back(t);
  return counts;
}

// Compressed-tier protocol (the *-tier records): a deliberately small
// frame budget forces steady-state evictions over the query batch; with
// the tier on, re-fetched pages promote from compressed RAM instead of
// the device. One untimed pass populates pool + tier, the measured pass
// counts device misses vs promotions. The tier_bytes == 0 control runs
// the identical workload at the same frame budget, isolating the tier.
template <typename Index>
inline void RunTieredExperiment(const char* experiment, uint64_t seed,
                                uint64_t query_seed, JsonWriter* json) {
  std::string banner = std::string(experiment) + "t compressed-tier pool";
  PrintHeader(banner.c_str(),
              "small pool, repeated batch; promotions replace device reads");
  const uint64_t N = Scaled(262144);
  TablePrinter table({"tier_bytes", "avg_ios", "compressed_hits/query",
                      "codec_ratio"});
  for (const size_t tier_bytes : {size_t{0}, size_t{16} << 20}) {
    io::SimDiskManager disk(4096);
    io::BufferPool pool(&disk, 512, io::BufferPoolOptions{tier_bytes});
    Rng rng(seed);
    auto segs = workload::GenMapLayer(rng, N, 1 << 22);
    Index index(&pool);
    Check(index.BulkLoad(segs), "build");
    Rng qrng(query_seed);
    auto box = workload::ComputeBoundingBox(segs);
    auto queries = workload::GenVsQueries(qrng, 64, box, 0.01);
    uint64_t max_misses = 0;  // per query, measured pass
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) pool.ResetStats();
      for (const workload::VsQuery& q : queries) {
        const uint64_t misses_before = pool.stats().misses;
        std::vector<geom::Segment> out;
        Check(index.Query(core::VerticalSegmentQuery{q.x0, q.ylo, q.yhi},
                          &out),
              "query");
        if (pass == 1) {
          max_misses =
              std::max(max_misses, pool.stats().misses - misses_before);
        }
      }
    }
    const io::BufferPoolStats stats = pool.stats();
    const double per_query = 1.0 / static_cast<double>(queries.size());
    table.AddRow(
        {TablePrinter::Fmt(uint64_t{tier_bytes}),
         TablePrinter::Fmt(static_cast<double>(stats.misses) * per_query),
         TablePrinter::Fmt(static_cast<double>(stats.compressed_hits) *
                           per_query),
         TablePrinter::Fmt(CodecCompressionRatio())});
    BenchRecord record;
    record.experiment = std::string(experiment) +
                        (tier_bytes == 0 ? "-tier0" : "-tier");
    record.structure = index.name();
    record.n = N;
    record.page_size = 4096;
    record.num_queries = queries.size();
    record.avg_ios =
        static_cast<double>(stats.misses) * per_query;
    record.max_ios = static_cast<double>(max_misses);
    record.compression_ratio = CodecCompressionRatio();
    record.compressed_hits = stats.compressed_hits;
    json->Add(std::move(record));
  }
  PrintTable(table);
}

}  // namespace segdb::bench

#endif  // SEGDB_BENCH_BENCH_COMMON_H_
