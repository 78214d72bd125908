/**
 * @file
 * NVM DIMM and firmware-bug model tests (the Section II fault model).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "nvm/nvm.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "test_util.hh"

namespace tvarak {
namespace {

std::array<std::uint8_t, kLineBytes>
pattern(std::uint8_t seed)
{
    std::array<std::uint8_t, kLineBytes> buf;
    for (std::size_t i = 0; i < buf.size(); i++)
        buf[i] = static_cast<std::uint8_t>(seed + i);
    return buf;
}

TEST(NvmDimm, WriteReadRoundtrip)
{
    NvmDimm dimm(1 << 20);
    auto w = pattern(5);
    dimm.firmwareWrite(kLineBytes * 3, w.data());
    std::array<std::uint8_t, kLineBytes> r{};
    dimm.firmwareRead(kLineBytes * 3, r.data());
    EXPECT_EQ(r, w);
    EXPECT_TRUE(dimm.eccCheck(kLineBytes * 3));
    EXPECT_EQ(dimm.bugsTriggered(), 0u);
}

TEST(NvmDimm, LostWriteKeepsOldDataAndCleanEcc)
{
    NvmDimm dimm(1 << 20);
    auto v1 = pattern(1), v2 = pattern(2);
    dimm.firmwareWrite(0, v1.data());
    dimm.injectLostWrite(0);
    dimm.firmwareWrite(0, v2.data());  // acked but dropped
    std::array<std::uint8_t, kLineBytes> r{};
    dimm.firmwareRead(0, r.data());
    EXPECT_EQ(r, v1) << "lost write must leave old data";
    // The device-level ECC is *consistent* with the (old) data: it
    // cannot flag the lost write (paper Section II-A).
    EXPECT_TRUE(dimm.eccCheck(0));
    EXPECT_EQ(dimm.bugsTriggered(), 1u);
}

TEST(NvmDimm, LostWriteIsSingleShot)
{
    NvmDimm dimm(1 << 20);
    auto v1 = pattern(1), v2 = pattern(2);
    dimm.injectLostWrite(0);
    dimm.firmwareWrite(0, v1.data());  // dropped
    dimm.firmwareWrite(0, v2.data());  // applied
    std::array<std::uint8_t, kLineBytes> r{};
    dimm.firmwareRead(0, r.data());
    EXPECT_EQ(r, v2);
}

TEST(NvmDimm, MisdirectedWriteCorruptsVictimConsistently)
{
    NvmDimm dimm(1 << 20);
    auto green = pattern(3), blue = pattern(4), w = pattern(5);
    dimm.firmwareWrite(0, green.data());           // intended target
    dimm.firmwareWrite(kLineBytes, blue.data());   // victim
    dimm.injectMisdirectedWrite(0, kLineBytes);
    dimm.firmwareWrite(0, w.data());
    std::array<std::uint8_t, kLineBytes> r{};
    dimm.firmwareRead(0, r.data());
    EXPECT_EQ(r, green) << "intended location not updated";
    dimm.firmwareRead(kLineBytes, r.data());
    EXPECT_EQ(r, w) << "victim overwritten";
    // Both locations' ECC pass: the firmware wrote data+ECC as an atom.
    EXPECT_TRUE(dimm.eccCheck(0));
    EXPECT_TRUE(dimm.eccCheck(kLineBytes));
}

TEST(NvmDimm, MisdirectedReadReturnsWrongLocation)
{
    NvmDimm dimm(1 << 20);
    auto a = pattern(6), b = pattern(7);
    dimm.firmwareWrite(0, a.data());
    dimm.firmwareWrite(kLineBytes, b.data());
    dimm.injectMisdirectedRead(0, kLineBytes);
    std::array<std::uint8_t, kLineBytes> r{};
    dimm.firmwareRead(0, r.data());
    EXPECT_EQ(r, b);
    // Media untouched: a retry returns the right data.
    dimm.firmwareRead(0, r.data());
    EXPECT_EQ(r, a);
}

TEST(NvmDimm, BitFlipCaughtByEcc)
{
    NvmDimm dimm(1 << 20);
    auto a = pattern(8);
    dimm.firmwareWrite(0, a.data());
    EXPECT_TRUE(dimm.eccCheck(0));
    dimm.injectBitFlip(5, 3);
    EXPECT_FALSE(dimm.eccCheck(0))
        << "media error must fail device ECC";
    std::array<std::uint8_t, kLineBytes> flipped{};
    dimm.rawRead(0, flipped.data(), kLineBytes);
    dimm.firmwareWrite(0, flipped.data());
    EXPECT_TRUE(dimm.eccCheck(0))
        << "a firmware write recomputes the ECC, even of bytes that are "
           "already there";
}

TEST(NvmDimm, RawAccessBypassesBugs)
{
    NvmDimm dimm(1 << 20);
    auto v = pattern(9);
    dimm.injectLostWrite(0);
    dimm.rawWrite(0, v.data(), kLineBytes);
    std::array<std::uint8_t, kLineBytes> r{};
    dimm.rawRead(0, r.data(), kLineBytes);
    EXPECT_EQ(r, v);
    EXPECT_EQ(dimm.bugsTriggered(), 0u);
}

/** The marked pages of @p dimm, ascending; clears the set. */
std::vector<std::size_t>
takeChanged(NvmDimm &dimm)
{
    std::vector<std::size_t> pages;
    dimm.changedPages().forEach(
        [&](std::size_t page) { pages.push_back(page); });
    dimm.clearChangedPages();
    return pages;
}

TEST(NvmDimm, ChangedPagesNameEveryMediaChange)
{
    // A cold restart re-syncs only marked pages, so every media change
    // must mark the page it lands on, and reads must mark nothing.
    constexpr std::size_t kPages = 8;
    using Pages = std::vector<std::size_t>;
    NvmDimm dimm(kPages * kPageBytes);
    EXPECT_EQ(takeChanged(dimm), Pages{}) << "fresh media is all zero";
    auto v = pattern(3);

    dimm.firmwareWrite(kPageBytes + kLineBytes, v.data());
    EXPECT_EQ(takeChanged(dimm), Pages{1});
    std::array<std::uint8_t, kLineBytes> zero{};
    dimm.firmwareWrite(kPageBytes + kLineBytes, v.data());
    dimm.firmwareWrite(3 * kPageBytes, zero.data());
    EXPECT_EQ(takeChanged(dimm), Pages{})
        << "a firmware write of the bytes already there changes nothing";
    dimm.injectLostWrite(2 * kPageBytes);
    dimm.firmwareWrite(2 * kPageBytes, v.data());
    EXPECT_EQ(takeChanged(dimm), Pages{}) << "a lost write lands nowhere";
    dimm.injectMisdirectedWrite(2 * kPageBytes, 4 * kPageBytes);
    dimm.firmwareWrite(2 * kPageBytes, v.data());
    EXPECT_EQ(takeChanged(dimm), Pages{4}) << "marks where it landed";

    std::array<std::uint8_t, 2 * kLineBytes> two{};
    dimm.rawWrite(6 * kPageBytes - kLineBytes, two.data(), two.size());
    EXPECT_EQ(takeChanged(dimm), (Pages{5, 6}));
    dimm.injectBitFlip(7 * kPageBytes + 9, 2);
    EXPECT_EQ(takeChanged(dimm), Pages{7});

    dimm.injectMisdirectedRead(0, kPageBytes);
    dimm.firmwareRead(0, v.data());
    dimm.rawRead(kPageBytes, two.data(), two.size());
    EXPECT_EQ(takeChanged(dimm), Pages{}) << "reads change nothing";

    Pages all(kPages);
    for (std::size_t p = 0; p < kPages; p++)
        all[p] = p;
    dimm.fail();
    EXPECT_EQ(takeChanged(dimm), all);
    dimm.rawWrite(0, two.data(), two.size());
    dimm.injectBitFlip(kPageBytes + 9, 2);
    EXPECT_EQ(takeChanged(dimm), Pages{})
        << "a dead device drops writes and bit flips";
    dimm.replace();
    EXPECT_EQ(takeChanged(dimm), all);
}

TEST(NvmDimm, FailedDeviceReadsPoisonUntilReplaced)
{
    NvmDimm dimm(4 * kPageBytes);
    auto v = pattern(11);
    dimm.firmwareWrite(kPageBytes, v.data());
    dimm.fail();

    std::array<std::uint8_t, kLineBytes> poison, zero{}, r{};
    poison.fill(NvmDimm::kPoisonByte);
    dimm.rawWrite(kPageBytes, v.data(), kLineBytes);
    dimm.injectBitFlip(kPageBytes + 3, 1);
    for (Addr a = 0; a < dimm.bytes(); a += kLineBytes) {
        dimm.rawRead(a, r.data(), kLineBytes);
        ASSERT_EQ(r, poison) << "dead line 0x" << std::hex << a;
        ASSERT_FALSE(dimm.eccCheck(a)) << "dead line 0x" << std::hex << a;
    }

    dimm.replace();
    for (Addr a = 0; a < dimm.bytes(); a += kLineBytes) {
        dimm.rawRead(a, r.data(), kLineBytes);
        ASSERT_EQ(r, zero) << "fresh line 0x" << std::hex << a;
        ASSERT_TRUE(dimm.eccCheck(a)) << "fresh line 0x" << std::hex << a;
    }
}

TEST(NvmArray, DrainMapsChangedMediaPagesToGlobalPages)
{
    SimConfig cfg = test::smallConfig();
    Stats stats(1, cfg.nvm.dimms);
    NvmArray arr(cfg.nvm, cfg, stats);
    std::array<std::uint8_t, kLineBytes> buf;
    buf.fill(0x5a);  // fresh media is zero: zero bytes would change nothing
    arr.access(5 * kPageBytes, true, buf.data(), false);
    arr.rawWrite(10 * kPageBytes + kLineBytes, buf.data(), buf.size());

    PageBitmap global(arr.totalBytes());
    arr.drainChangedPages(global);
    std::vector<std::size_t> pages;
    global.forEach([&](std::size_t page) { pages.push_back(page); });
    EXPECT_EQ(pages, (std::vector<std::size_t>{5, 10}));
    for (std::size_t d = 0; d < arr.numDimms(); d++)
        EXPECT_EQ(takeChanged(arr.dimm(d)), std::vector<std::size_t>{})
            << "draining clears DIMM " << d;
}

TEST(NvmArray, PageStripingAcrossDimms)
{
    SimConfig cfg = test::smallConfig();
    Stats stats(1, cfg.nvm.dimms);
    NvmArray arr(cfg.nvm, cfg, stats);
    for (std::size_t p = 0; p < 8; p++) {
        Addr a = static_cast<Addr>(p) * kPageBytes;
        EXPECT_EQ(arr.dimmOf(a), p % cfg.nvm.dimms);
    }
    EXPECT_EQ(arr.mediaAddrOf(5 * kPageBytes + 100u),
              1 * kPageBytes + 100u);
}

TEST(NvmArray, AccessAccounting)
{
    SimConfig cfg = test::smallConfig();
    Stats stats(1, cfg.nvm.dimms);
    NvmArray arr(cfg.nvm, cfg, stats);
    std::array<std::uint8_t, kLineBytes> buf{};
    Cycles rl = arr.access(0, false, buf.data(), false);
    Cycles wl = arr.access(0, true, buf.data(), true);
    EXPECT_EQ(rl, cfg.nsToCycles(cfg.nvm.readNs));
    EXPECT_EQ(wl, cfg.nsToCycles(cfg.nvm.writeNs));
    EXPECT_EQ(stats.nvmDataReads, 1u);
    EXPECT_EQ(stats.nvmRedundancyWrites, 1u);
    EXPECT_GT(stats.dimmBusyCycles[0], 0u);
    EXPECT_DOUBLE_EQ(stats.nvmEnergy,
                     cfg.nvm.readEnergy + cfg.nvm.writeEnergy);
}

TEST(NvmArray, RawSpansPages)
{
    SimConfig cfg = test::smallConfig();
    Stats stats(1, cfg.nvm.dimms);
    NvmArray arr(cfg.nvm, cfg, stats);
    std::vector<std::uint8_t> w(3 * kPageBytes);
    for (std::size_t i = 0; i < w.size(); i++)
        w[i] = static_cast<std::uint8_t>(i * 7);
    arr.rawWrite(kPageBytes / 2, w.data(), w.size());
    std::vector<std::uint8_t> r(w.size());
    arr.rawRead(kPageBytes / 2, r.data(), r.size());
    EXPECT_EQ(r, w);
}

}  // namespace
}  // namespace tvarak
