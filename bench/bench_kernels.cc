/**
 * @file
 * google-benchmark microbenches for the data-plane kernels that both
 * TVARAK's functional model and the software schemes rely on. These
 * measure *host* throughput of the kernels (they justify the
 * swChecksumBytesPerCycle compute model used for the TxB schemes).
 *
 * Each kernel is benchmarked once per backend (scalar, and avx2 when
 * the CPU has it — unavailable backends are skipped at registration),
 * so a single run shows the per-backend delta that the runtime
 * dispatch buys on this host.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <string>
#include <vector>

#include "checksum/checksum.hh"
#include "kernels/kernels.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace {

using namespace tvarak;
using kernels::Backend;
using kernels::KernelOps;

std::vector<std::uint8_t>
randomBuf(std::size_t n)
{
    Rng rng(99);
    std::vector<std::uint8_t> buf(n);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    return buf;
}

// ------------------------------------------------------------------
// Per-backend kernel rows. The benchmarked op goes through the
// backend's table directly (not the dispatched ops()), so one process
// reports every available backend side by side.
// ------------------------------------------------------------------

void
BM_KernelCrcLine(benchmark::State &state)
{
    const KernelOps &ops =
        kernels::opsFor(static_cast<Backend>(state.range(0)));
    auto buf = randomBuf(kLineBytes);
    for (auto _ : state)
        benchmark::DoNotOptimize(ops.crc32c(buf.data(), kLineBytes, 0));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * kLineBytes));
}

void
BM_KernelCrcPage(benchmark::State &state)
{
    const KernelOps &ops =
        kernels::opsFor(static_cast<Backend>(state.range(0)));
    auto buf = randomBuf(kPageBytes);
    for (auto _ : state)
        benchmark::DoNotOptimize(ops.crc32c(buf.data(), kPageBytes, 0));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * kPageBytes));
}

void
BM_KernelXorLine(benchmark::State &state)
{
    const KernelOps &ops =
        kernels::opsFor(static_cast<Backend>(state.range(0)));
    auto a = randomBuf(kLineBytes);
    auto b = randomBuf(kLineBytes);
    for (auto _ : state) {
        ops.xorInto(a.data(), b.data(), kLineBytes);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * kLineBytes));
}

void
BM_KernelGfMacLine(benchmark::State &state)
{
    const KernelOps &ops =
        kernels::opsFor(static_cast<Backend>(state.range(0)));
    auto src = randomBuf(kLineBytes);
    auto dst = randomBuf(kLineBytes);
    for (auto _ : state) {
        ops.gfMulAcc(dst.data(), src.data(), 0x1d, kLineBytes);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * kLineBytes));
}

void
BM_KernelSequence(benchmark::State &state)
{
    // The full writeback pass: capture diff + checksum + two parity
    // roles, all in one traversal of the 64B line.
    const KernelOps &ops =
        kernels::opsFor(static_cast<Backend>(state.range(0)));
    auto oldData = randomBuf(kLineBytes);
    auto newData = randomBuf(kLineBytes);
    std::array<std::uint8_t, kLineBytes> diff{}, p0{}, p1{};
    std::uint64_t csum = 0;
    kernels::SeqDesc d;
    d.oldData = oldData.data();
    d.newData = newData.data();
    d.diffOut = diff.data();
    d.src = diff.data();
    d.csumOut = &csum;
    d.csumTag = kDaxClCsumTag;
    d.parity[0] = p0.data();
    d.coeff[0] = 1;
    d.parity[1] = p1.data();
    d.coeff[1] = 0x1d;
    d.roles = 2;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops.sequence(d));
        benchmark::DoNotOptimize(csum);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * kLineBytes));
}

void
BM_KernelFindTag(benchmark::State &state)
{
    // A 16-way LLC set probe that misses (worst case: full scan).
    const KernelOps &ops =
        kernels::opsFor(static_cast<Backend>(state.range(0)));
    std::vector<std::uint64_t> tags(16);
    for (std::size_t i = 0; i < tags.size(); i++)
        tags[i] = i * kLineBytes;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            ops.findTag(tags.data(), tags.size(), ~std::uint64_t{0}));
}

void
registerBackendRows()
{
    struct Row {
        const char *name;
        void (*fn)(benchmark::State &);
    };
    const Row rows[] = {
        {"BM_KernelCrcLine", BM_KernelCrcLine},
        {"BM_KernelCrcPage", BM_KernelCrcPage},
        {"BM_KernelXorLine", BM_KernelXorLine},
        {"BM_KernelGfMacLine", BM_KernelGfMacLine},
        {"BM_KernelSequence", BM_KernelSequence},
        {"BM_KernelFindTag", BM_KernelFindTag},
    };
    for (const Row &row : rows) {
        for (std::size_t i = 0; i < kernels::kBackendCount; i++) {
            Backend b = static_cast<Backend>(i);
            if (!kernels::backendAvailable(b))
                continue;
            std::string name = std::string(row.name) + "/" +
                kernels::backendName(b);
            benchmark::RegisterBenchmark(name.c_str(), row.fn)
                ->Arg(static_cast<int>(i));
        }
    }
}

// ------------------------------------------------------------------
// Facade rows (dispatched backend — the best this CPU supports).
// ------------------------------------------------------------------

void
BM_Crc32cLine(benchmark::State &state)
{
    auto buf = randomBuf(kLineBytes);
    for (auto _ : state)
        benchmark::DoNotOptimize(lineChecksum(buf.data()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * kLineBytes));
}
BENCHMARK(BM_Crc32cLine);

void
BM_Crc32cPage(benchmark::State &state)
{
    auto buf = randomBuf(kPageBytes);
    for (auto _ : state)
        benchmark::DoNotOptimize(pageChecksum(buf.data()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * kPageBytes));
}
BENCHMARK(BM_Crc32cPage);

void
BM_XorLine(benchmark::State &state)
{
    auto a = randomBuf(kLineBytes);
    auto b = randomBuf(kLineBytes);
    for (auto _ : state) {
        xorLine(a.data(), b.data());
        benchmark::DoNotOptimize(a.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * kLineBytes));
}
BENCHMARK(BM_XorLine);

void
BM_ZipfDraw(benchmark::State &state)
{
    ZipfGenerator zipf(1u << 20, 0.99);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.next());
}
BENCHMARK(BM_ZipfDraw);

}  // namespace

int
main(int argc, char **argv)
{
    registerBackendRows();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 2;  // a usage error, as in every other bench
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
