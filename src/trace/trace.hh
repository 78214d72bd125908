/**
 * @file
 * Access-trace record & replay.
 *
 * The demand stream reaching MemorySystem is design-independent: the
 * application issues the same reads, writes, compute charges and
 * commit points under Baseline, TVARAK and both TxB schemes (only the
 * *redundancy machinery's* accesses differ, and those are derived from
 * the demand stream). Recording that stream once under Baseline and
 * replaying it per design therefore reproduces every design's Stats
 * bit-identically while skipping the application logic — see
 * DESIGN.md §8 for the full argument.
 *
 * Pieces:
 *  - TraceData       an in-memory trace (header + encoded records),
 *                    loadable/savable in the format of format.hh.
 *  - TraceWriter     a TraceSink that delta/varint-encodes events.
 *  - TraceCursor     sequential decoder over a TraceData.
 *  - TraceReplayWorkload  a Workload that re-issues the recorded
 *                    global event stream in order, so replay plugs
 *                    into runExperiment and the parallel engine.
 *  - recordExperiment / replayExperiment  the one-call entry points.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "redundancy/scheme.hh"
#include "trace/format.hh"
#include "trace/sink.hh"

namespace tvarak::trace {

/** An in-memory access trace: self-contained header + record bytes. */
struct TraceData {
    std::uint32_t version = kTraceVersion;
    DesignKind recordedDesign{};  //!< design the stream was captured under
    std::uint64_t configFingerprint = 0;  //!< FNV-1a over the cfg blob
    std::uint32_t threads = 1;            //!< max recorded tid + 1
    std::string workloadName;
    SimConfig cfg;                        //!< recorded machine config
    std::uint64_t eventCount = 0;
    std::vector<std::uint8_t> records;

    /** @return false (with a warn) on I/O failure. */
    bool save(const std::string &path) const;
    /** @return nullptr (with a warn) on I/O or format error. */
    static std::shared_ptr<TraceData> load(const std::string &path);
};

/** Serialize @p cfg to the fixed-field-order blob fingerprints cover. */
std::vector<std::uint8_t> serializeConfig(const SimConfig &cfg);
/** Inverse of serializeConfig. @return false on a short/long blob or
 *  a reserved slot that does not hold its constant. */
bool deserializeConfig(const std::vector<std::uint8_t> &blob,
                       SimConfig &cfg);

/** TraceSink that encodes events into a TraceData. */
class TraceWriter final : public TraceSink
{
  public:
    TraceWriter(const SimConfig &cfg, DesignKind design,
                std::string workloadName);

    void onRead(int tid, Addr vaddr, std::size_t len) override;
    void onWrite(int tid, Addr vaddr, const void *buf,
                 std::size_t len) override;
    void onCompute(int tid, Cycles cycles) override;
    void onComputeChecksum(int tid, std::size_t bytes) override;
    void onDropCaches() override;
    void onCommit(int tid, const std::vector<DirtyRange> &ranges,
                  bool runScheme, bool countsTxCommit) override;
    void onFsCreate(const std::string &name, std::size_t bytes,
                    int fd) override;
    void onFsDaxMap(int fd) override;
    void onFsDaxUnmap(int fd) override;
    void onFsRemove(int fd) override;
    void onFsPwrite(int tid, int fd, std::size_t offset, const void *buf,
                    std::size_t len) override;
    void onFsPread(int tid, int fd, std::size_t offset,
                   std::size_t len) override;
    void onMarker(std::uint64_t subtype) override;

    /** Seal and hand over the trace (the writer is spent after). */
    std::shared_ptr<TraceData> finish();

  private:
    void putHead(Op op, int tid);
    /** Per-tid delta cursor; encode vaddr, advance cursor to end. */
    void putAddr(int tid, Addr vaddr, std::size_t len);
    Addr &cursorOf(int tid);

    std::shared_ptr<TraceData> data_;
    std::vector<Addr> lastVaddr_;
    int maxTid_ = 0;
};

/** One decoded trace event (see format.hh for field applicability). */
struct TraceEvent {
    Op op = Op::Marker;
    int tid = 0;
    Addr vaddr = 0;
    std::size_t len = 0;
    Cycles cycles = 0;                 //!< Compute
    std::size_t bytes = 0;             //!< ComputeChecksum / FsCreate
    const std::uint8_t *payload = nullptr;  //!< Write / FsPwrite
    bool runScheme = false;            //!< Commit
    bool countsTxCommit = false;       //!< Commit
    std::vector<DirtyRange> ranges;    //!< Commit
    int fd = -1;                       //!< Fs*
    std::size_t offset = 0;            //!< FsPwrite / FsPread
    std::string name;                  //!< FsCreate
    std::uint64_t subtype = 0;         //!< Marker
};

/** Sequential decoder. The cursor borrows the TraceData's buffer;
 *  payload pointers are valid while the TraceData lives. */
class TraceCursor
{
  public:
    explicit TraceCursor(const TraceData &trace);

    /** Decode the next event into @p e (reusing its vectors).
     *  @return false at end of stream. */
    bool next(TraceEvent &e);

  private:
    const std::uint8_t *p_;
    const std::uint8_t *end_;
    std::vector<Addr> lastVaddr_;
};

/**
 * Replays a recorded event stream against a fresh machine. A single
 * workload replays the *global* interleaved stream (issuing each event
 * under its recorded tid), so thread interleaving — and therefore every
 * cache and DIMM interaction — matches the recording exactly.
 *
 * setup() replays through the ResetStats marker (the recorded
 * pre-measurement phase); step() replays the measured phase in slices.
 * The recorded run's final flushAll is not in the trace: the runner
 * re-executes it natively over bit-identical machine state.
 */
class TraceReplayWorkload final : public Workload
{
  public:
    TraceReplayWorkload(std::shared_ptr<const TraceData> trace,
                        MemorySystem &mem, DaxFs &fs);

    void setup() override;
    bool step() override;
    int tid() const override { return 0; }
    std::string name() const override { return trace_->workloadName; }

  private:
    /** Re-issue one event. @return false for the ResetStats marker. */
    bool apply(const TraceEvent &e);

    std::shared_ptr<const TraceData> trace_;
    MemorySystem &mem_;
    DaxFs &fs_;
    TraceCursor cursor_;
    TraceEvent event_;
    std::unique_ptr<RedundancyScheme> scheme_;
    std::vector<std::uint8_t> scratch_;  //!< read/pread target
    bool exhausted_ = false;
};

/** Factory wrapping @p trace for runExperiment / the parallel engine.
 *  The TraceData is shared immutably across concurrent replays. */
WorkloadFactory makeReplayFactory(std::shared_ptr<const TraceData> trace);

struct RecordResult {
    RunResult result;                  //!< the recording run itself
    std::shared_ptr<TraceData> trace;
};

/** Run @p make under @p design with a recorder attached. */
RecordResult recordExperiment(const SimConfig &cfg, DesignKind design,
                              const WorkloadFactory &make,
                              const std::string &workloadName);

/** Replay @p trace under @p design (on the trace's own config). */
RunResult replayExperiment(std::shared_ptr<const TraceData> trace,
                           DesignKind design);

/** As above, for any registered Design (variants included). The
 *  trace header still stores only the design's DesignKind. */
RecordResult recordExperiment(const SimConfig &cfg, const Design &design,
                              const WorkloadFactory &make,
                              const std::string &workloadName);
RunResult replayExperiment(std::shared_ptr<const TraceData> trace,
                           const Design &design);

}  // namespace tvarak::trace
