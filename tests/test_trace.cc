/**
 * @file
 * Access-trace record & replay tests.
 *
 * The load-bearing property (ISSUE 3 acceptance criterion): a trace
 * recorded once under Baseline, replayed under each of the four
 * designs, produces Stats bit-identical to direct execution of the
 * same workload under that design — for both a raw-access workload
 * (stream triad, RawCoverage commit path) and a transactional
 * key-value workload (C-Tree inserts, PmemPool commit path).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/stream/stream.hh"
#include "apps/trees/tree_workload.hh"
#include "test_util.hh"
#include "trace/trace.hh"

namespace tvarak {
namespace {

/** Two stream-triad threads over small persistent arrays. */
WorkloadFactory
streamFactory()
{
    return [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = makeScheme(mem.design(), mem);
        WorkloadSet set;
        StreamWorkload::Params p;
        p.kernel = StreamWorkload::Kernel::Triad;
        p.chunkBytes = 64 * 1024;
        p.sliceLines = 256;
        for (int t = 0; t < 2; t++) {
            set.workloads.push_back(std::make_unique<StreamWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        set.beforeMeasure = [](MemorySystem &m) { m.dropCaches(); };
        return set;
    };
}

/** Two C-Tree insert-only instances (transactional commit path). */
WorkloadFactory
ctreeFactory()
{
    return [](MemorySystem &mem, DaxFs &fs) -> WorkloadSet {
        auto scheme = makeScheme(mem.design(), mem);
        WorkloadSet set;
        TreeWorkload::Params p;
        p.kind = MapKind::CTree;
        p.mix = TreeWorkload::Mix::InsertOnly;
        p.preload = 512;
        p.ops = 512;
        p.sliceOps = 128;
        p.poolBytes = 4ull << 20;
        for (int t = 0; t < 2; t++) {
            set.workloads.push_back(std::make_unique<TreeWorkload>(
                mem, fs, t, scheme.get(), p));
        }
        set.shared = std::shared_ptr<void>(
            scheme.release(),
            [](void *q) { delete static_cast<RedundancyScheme *>(q); });
        return set;
    };
}

/** Record under Baseline, then assert replay == direct per design. */
void
expectReplayEquivalence(const WorkloadFactory &make, const char *label)
{
    SimConfig cfg = test::smallConfig();
    trace::RecordResult rec = trace::recordExperiment(
        cfg, designOf(DesignKind::Baseline), make, label);
    ASSERT_NE(rec.trace, nullptr);
    EXPECT_GT(rec.trace->eventCount, 0u);

    // The recording run is itself an undisturbed Baseline run.
    RunResult directBase =
        runExperiment(cfg, DesignKind::Baseline, make);
    EXPECT_EQ(statsDiff(rec.result.stats, directBase.stats), "")
        << label << ": recording perturbed the recorded run";

    for (DesignKind d : allDesigns()) {
        RunResult direct = runExperiment(cfg, d, make);
        RunResult replayed =
            trace::replayExperiment(rec.trace, designOf(d));
        EXPECT_EQ(statsDiff(direct.stats, replayed.stats), "")
            << label << " under " << designName(d);
        EXPECT_EQ(direct.runtimeCycles, replayed.runtimeCycles);
    }
}

TEST(Trace, StreamReplayBitIdenticalAllDesigns)
{
    expectReplayEquivalence(streamFactory(), "stream-triad");
}

TEST(Trace, CtreeReplayBitIdenticalAllDesigns)
{
    expectReplayEquivalence(ctreeFactory(), "ctree-insert");
}

TEST(Trace, VarintZigzagRoundTrip)
{
    const std::uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384,
                                    ~std::uint64_t{0}};
    std::vector<std::uint8_t> buf;
    for (std::uint64_t v : values)
        trace::putVarint(buf, v);
    const std::uint8_t *p = buf.data();
    const std::uint8_t *end = p + buf.size();
    for (std::uint64_t v : values)
        EXPECT_EQ(trace::getVarint(p, end), v);
    EXPECT_EQ(p, end);

    const std::int64_t deltas[] = {0, 1, -1, 63, -64, 1'000'000,
                                   -1'000'000};
    for (std::int64_t s : deltas)
        EXPECT_EQ(trace::unzigzag(trace::zigzag(s)), s);
}

TEST(Trace, WriterCursorRoundTrip)
{
    trace::TraceWriter w(test::smallConfig(), DesignKind::Baseline,
                         "unit");
    const std::uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    w.onRead(0, 0x1000, 64);
    w.onWrite(1, 0x2000, payload, sizeof(payload));
    w.onCompute(0, 42);
    w.onComputeChecksum(1, 4096);
    w.onDropCaches();
    DirtyRange r;
    r.vaddr = 0x3000;
    r.len = 16;
    r.objBase = lineBase(r.vaddr);
    r.objLen = kLineBytes;
    r.csumVaddr = 0x9000;
    w.onCommit(1, {r}, true, true);
    w.onFsCreate("f", 4096, 3);
    w.onFsPwrite(0, 3, 128, payload, sizeof(payload));
    w.onMarker(trace::kMarkerResetStats);
    auto t = w.finish();
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->eventCount, 9u);
    EXPECT_EQ(t->threads, 2u);

    trace::TraceCursor c(*t);
    trace::TraceEvent e;
    ASSERT_TRUE(c.next(e));
    EXPECT_EQ(e.op, trace::Op::Read);
    EXPECT_EQ(e.tid, 0);
    EXPECT_EQ(e.vaddr, 0x1000u);
    EXPECT_EQ(e.len, 64u);
    ASSERT_TRUE(c.next(e));
    EXPECT_EQ(e.op, trace::Op::Write);
    EXPECT_EQ(e.tid, 1);
    EXPECT_EQ(e.vaddr, 0x2000u);
    ASSERT_EQ(e.len, sizeof(payload));
    EXPECT_EQ(std::memcmp(e.payload, payload, sizeof(payload)), 0);
    ASSERT_TRUE(c.next(e));
    EXPECT_EQ(e.op, trace::Op::Compute);
    EXPECT_EQ(e.cycles, 42u);
    ASSERT_TRUE(c.next(e));
    EXPECT_EQ(e.op, trace::Op::ComputeChecksum);
    EXPECT_EQ(e.bytes, 4096u);
    ASSERT_TRUE(c.next(e));
    EXPECT_EQ(e.op, trace::Op::DropCaches);
    ASSERT_TRUE(c.next(e));
    EXPECT_EQ(e.op, trace::Op::Commit);
    EXPECT_TRUE(e.runScheme);
    EXPECT_TRUE(e.countsTxCommit);
    ASSERT_EQ(e.ranges.size(), 1u);
    EXPECT_EQ(e.ranges[0].vaddr, r.vaddr);
    EXPECT_EQ(e.ranges[0].len, r.len);
    EXPECT_EQ(e.ranges[0].objBase, r.objBase);
    EXPECT_EQ(e.ranges[0].objLen, r.objLen);
    EXPECT_EQ(e.ranges[0].csumVaddr, r.csumVaddr);
    EXPECT_TRUE(e.ranges[0].appData);
    ASSERT_TRUE(c.next(e));
    EXPECT_EQ(e.op, trace::Op::FsCreate);
    EXPECT_EQ(e.name, "f");
    EXPECT_EQ(e.bytes, 4096u);
    EXPECT_EQ(e.fd, 3);
    ASSERT_TRUE(c.next(e));
    EXPECT_EQ(e.op, trace::Op::FsPwrite);
    EXPECT_EQ(e.fd, 3);
    EXPECT_EQ(e.offset, 128u);
    ASSERT_EQ(e.len, sizeof(payload));
    EXPECT_EQ(std::memcmp(e.payload, payload, sizeof(payload)), 0);
    ASSERT_TRUE(c.next(e));
    EXPECT_EQ(e.op, trace::Op::Marker);
    EXPECT_EQ(e.subtype, trace::kMarkerResetStats);
    EXPECT_FALSE(c.next(e));
}

TEST(Trace, SaveLoadRoundTrip)
{
    const char *path = "test_trace_roundtrip.trace";
    SimConfig cfg = test::smallConfig();
    trace::RecordResult rec = trace::recordExperiment(
        cfg, designOf(DesignKind::Baseline), streamFactory(),
        "stream-triad");
    ASSERT_NE(rec.trace, nullptr);
    ASSERT_TRUE(rec.trace->save(path));

    auto loaded = trace::TraceData::load(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->version, rec.trace->version);
    EXPECT_EQ(loaded->recordedDesign, rec.trace->recordedDesign);
    EXPECT_EQ(loaded->configFingerprint, rec.trace->configFingerprint);
    EXPECT_EQ(loaded->threads, rec.trace->threads);
    EXPECT_EQ(loaded->workloadName, rec.trace->workloadName);
    EXPECT_EQ(loaded->eventCount, rec.trace->eventCount);
    EXPECT_EQ(loaded->records, rec.trace->records);

    // A loaded trace replays like the in-memory one.
    const Design &tvarak = designOf(DesignKind::Tvarak);
    RunResult a = trace::replayExperiment(rec.trace, tvarak);
    RunResult b = trace::replayExperiment(loaded, tvarak);
    EXPECT_EQ(statsDiff(a.stats, b.stats), "");
    std::remove(path);
}

TEST(Trace, LoadRejectsGarbage)
{
    EXPECT_EQ(trace::TraceData::load("no-such-file.trace"), nullptr);
    const char *path = "test_trace_garbage.trace";
    std::FILE *f = std::fopen(path, "wb");  // lint:allow(R7)
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace", f);
    std::fclose(f);
    EXPECT_EQ(trace::TraceData::load(path), nullptr);
    std::remove(path);
}

/** Every knob of @p cfg as a double, in table order. */
std::vector<double>
knobValues(const SimConfig &cfg)
{
    std::vector<double> v;
    forEachKnob(cfg, [&](const ConfigKnob &, auto x) {
        v.push_back(static_cast<double>(x));
    });
    return v;
}

TEST(Trace, ConfigSerializationRoundTrip)
{
    // Every knob gets a value no other knob has and that is not its
    // default, so a knob the decoder drops, misplaces or truncates
    // comes back wrong.
    SimConfig cfg = test::smallConfig();
    const std::vector<double> defaults = knobValues(cfg);
    std::size_t i = 0;
    forEachKnob(cfg, [&](const ConfigKnob &k, auto &x) {
        x = static_cast<std::remove_reference_t<decltype(x)>>(1000.25 + i);
        EXPECT_NE(static_cast<double>(x), defaults[i]) << k.path();
        i++;
    });
    ASSERT_EQ(i, 44u);
    auto blob = trace::serializeConfig(cfg);
    SimConfig back;
    ASSERT_TRUE(trace::deserializeConfig(blob, back));
    EXPECT_EQ(trace::serializeConfig(back), blob);
    const std::vector<double> want = knobValues(cfg);
    const std::vector<double> got = knobValues(back);
    i = 0;
    forEachKnob(cfg, [&](const ConfigKnob &k, auto) {
        EXPECT_EQ(got[i], want[i]) << k.path();
        i++;
    });

    blob.pop_back();
    EXPECT_FALSE(trace::deserializeConfig(blob, back));
}

TEST(Trace, ConfigBlobCarriesTheNkTailOnlyOffDefault)
{
    // 46 words for the paper's single-parity geometry (42 knobs and 4
    // retired slots); an n+k geometry appends its two words.
    SimConfig cfg = test::smallConfig();
    EXPECT_EQ(trace::serializeConfig(cfg).size(), 46u * 8);
    cfg.nvm.parityDimms = 2;
    cfg.nvm.dimmsPerDomain = 2;
    const auto blob = trace::serializeConfig(cfg);
    EXPECT_EQ(blob.size(), 48u * 8);
    SimConfig back;
    ASSERT_TRUE(trace::deserializeConfig(blob, back));
    EXPECT_EQ(back.nvm.parityDimms, 2u);
    EXPECT_EQ(back.nvm.dimmsPerDomain, 2u);
    EXPECT_EQ(trace::serializeConfig(back), blob);
}

TEST(Trace, GoldenTraceConfigReencodesToItsFingerprint)
{
    // The committed traces carry config blobs written by an earlier
    // encoder, on the test::smallConfig() machine. Decoding one and
    // encoding it again, and encoding that machine afresh, must both
    // give the bytes whose FNV-1a the header stores: a field that is
    // added, dropped, resized or moved fails here.
    const auto fresh = trace::serializeConfig(test::smallConfig());
    for (const char *name : {"stream.trace", "ctree.trace"}) {
        auto t = trace::TraceData::load(std::string(TVARAK_GOLDEN_DIR) +
                                        "/" + name);
        ASSERT_NE(t, nullptr) << name;
        const auto blob = trace::serializeConfig(t->cfg);
        EXPECT_EQ(trace::fnv1a(blob.data(), blob.size()),
                  t->configFingerprint)
            << name;
        EXPECT_EQ(trace::fnv1a(fresh.data(), fresh.size()),
                  t->configFingerprint)
            << name;
    }
}

/** Store @p v little-endian at @p at. */
void
putWord(std::uint8_t *at, std::uint64_t v)
{
    for (std::size_t i = 0; i < 8; i++)
        at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

TEST(Trace, BentReservedSlotFailsToLoad)
{
    const std::string path = "test_trace_bent_slot.trace";
    trace::TraceData t;
    t.cfg = test::smallConfig();
    t.recordedDesign = DesignKind::Baseline;
    t.threads = 1;
    t.workloadName = "empty";
    const auto blob = trace::serializeConfig(t.cfg);
    t.configFingerprint = trace::fnv1a(blob.data(), blob.size());
    ASSERT_TRUE(t.save(path));
    std::ifstream in(path, std::ios::binary);  // lint:allow(R7)
    const std::vector<std::uint8_t> good(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    const std::size_t cfgAt = static_cast<std::size_t>(
        std::search(good.begin(), good.end(), blob.begin(), blob.end()) -
        good.begin());
    ASSERT_LT(cfgAt, good.size());

    // Rewrite one 8-byte word of the config blob and re-seal the
    // header's config fingerprint (the u64 after magic, version and
    // design), so that the word is the only thing changed.
    auto bend = [&](std::size_t word, std::uint64_t value) {
        std::vector<std::uint8_t> bytes = good;
        putWord(bytes.data() + cfgAt + 8 * word, value);
        putWord(bytes.data() + 16,
                trace::fnv1a(bytes.data() + cfgAt, blob.size()));
        std::ofstream out(path, std::ios::binary);  // lint:allow(R7)
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    };
    // Word 36 is computeLatency, an ordinary field: the control.
    bend(36, 7);
    auto loaded = trace::TraceData::load(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->cfg.tvarak.computeLatency, 7u);
    // Word 35 is the retired verification slot (always 0), words
    // 39..41 the retired Fig 9 ladder slots (always 1).
    const std::pair<std::size_t, std::uint64_t> bent[] = {
        {35, 1}, {39, 0}, {40, 0}, {41, 0}};
    for (auto [word, value] : bent) {
        bend(word, value);
        EXPECT_EQ(trace::TraceData::load(path), nullptr) << "word " << word;
    }
    int rc = std::system((std::string(TVARAK_TRACE_CLI) + " info " +
                          path + " > /dev/null 2>&1")
                             .c_str());
    ASSERT_TRUE(WIFEXITED(rc));
    EXPECT_EQ(WEXITSTATUS(rc), 2) << "tvarak-trace info exit status";
    std::remove(path.c_str());
}

}  // namespace
}  // namespace tvarak
