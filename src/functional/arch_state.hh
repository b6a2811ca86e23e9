/**
 * @file
 * Architectural state: logical registers plus data memory.
 */

#ifndef MSPLIB_FUNCTIONAL_ARCH_STATE_HH
#define MSPLIB_FUNCTIONAL_ARCH_STATE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/program.hh"

namespace msp {

/**
 * The architectural register file and memory of a running program.
 *
 * Register words are raw 64-bit values; fp registers hold IEEE doubles
 * reinterpreted as bits. Memory is word-granular (8 bytes).
 *
 * Memory is copy-on-write over the program's shared initial image
 * (Program::initData). It is split into pages of @ref pageWords words
 * (a single page of memWords words when memWords is smaller), and a
 * page table maps each page to the words it reads:
 *  - a page wholly inside initData reads the shared image in place;
 *  - a page wholly past initData reads one static zero page;
 *  - the page holding a partial initData tail is owned from
 *    construction (a private copy, zero-padded);
 *  - any other page becomes owned on its first store.
 * Construction costs O(pages); a copy, operator== and firstMemDiff()
 * cost O(pages) plus O(pageWords) per owned page, never O(memWords)
 * of clean memory: two pages mapping the same words are equal without
 * a look. The state shares ownership of the image, so it may outlive
 * its Program.
 */
class ArchState
{
  public:
    static constexpr unsigned pageShift = 9;
    static constexpr std::size_t pageWords = std::size_t{1} << pageShift;

    /** Initialize from a program image (zero registers, map initData). */
    explicit ArchState(const Program &prog);

    /** Copies own private copies of the source's owned pages. */
    ArchState(const ArchState &o);
    ArchState &operator=(const ArchState &o);
    ArchState(ArchState &&) noexcept = default;
    ArchState &operator=(ArchState &&) noexcept = default;

    /** Read integer register @p r (r0 reads as zero). */
    std::uint64_t
    readInt(int r) const
    {
        msp_assert(r >= 0 && r < numIntRegs, "int reg %d out of range", r);
        return r == 0 ? 0 : intRegs[r];
    }

    /** Write integer register @p r (writes to r0 are discarded). */
    void
    writeInt(int r, std::uint64_t v)
    {
        msp_assert(r >= 0 && r < numIntRegs, "int reg %d out of range", r);
        if (r != 0)
            intRegs[r] = v;
    }

    /** Read fp register @p r as raw bits. */
    std::uint64_t
    readFp(int r) const
    {
        msp_assert(r >= 0 && r < numFpRegs, "fp reg %d out of range", r);
        return fpRegs[r];
    }

    /** Write fp register @p r with raw bits. */
    void
    writeFp(int r, std::uint64_t v)
    {
        msp_assert(r >= 0 && r < numFpRegs, "fp reg %d out of range", r);
        fpRegs[r] = v;
    }

    /** Read a register by class. */
    std::uint64_t
    read(RegClass cls, int r) const
    {
        return cls == RegClass::Fp ? readFp(r) : readInt(r);
    }

    /** Write a register by class. */
    void
    write(RegClass cls, int r, std::uint64_t v)
    {
        if (cls == RegClass::Fp)
            writeFp(r, v);
        else
            writeInt(r, v);
    }

    /** Load the word at byte address @p a (already masked/aligned). */
    std::uint64_t
    load(Addr a) const
    {
        const std::size_t w = (a & mask) / wordBytes;
        return pages[w >> pageShift].read[w & (pageWords - 1)];
    }

    /** Store the word at byte address @p a. */
    void
    store(Addr a, std::uint64_t v)
    {
        const std::size_t w = (a & mask) / wordBytes;
        Page &pg = pages[w >> pageShift];
        if (!pg.own)
            own(pg);
        pg.own[w & (pageWords - 1)] = v;
    }

    /** Address mask of the owning program. */
    Addr addrMask() const { return mask; }

    /** Data-memory size in words. */
    std::size_t memWords() const { return words; }

    /** Pages holding a private copy. */
    std::size_t ownedPages() const;

    /**
     * Index of the first memory word at or after @p from whose value
     * differs from @p o's, or memWords() when none does. Pages mapping
     * the same words are skipped unread. Both states must share one
     * memory geometry.
     */
    std::size_t firstMemDiff(const ArchState &o, std::size_t from = 0) const;

    bool operator==(const ArchState &o) const;

  private:
    /** One page-table entry. */
    struct Page
    {
        const std::uint64_t *read = nullptr;   ///< the page's words
        /** The private copy once owned; then read == own.get(). */
        std::unique_ptr<std::uint64_t[]> own;
    };

    /** Words per page (memWords when smaller than pageWords). */
    std::size_t
    pageLen() const
    {
        return words < pageWords ? words : pageWords;
    }

    /** Give @p pg a private copy of the words it reads. */
    void own(Page &pg);

    std::array<std::uint64_t, numIntRegs> intRegs{};
    std::array<std::uint64_t, numFpRegs> fpRegs{};
    std::vector<Page> pages;
    std::shared_ptr<const DataImage::Words> image;   ///< keeps pages alive
    std::size_t words;
    Addr mask;
};

} // namespace msp

#endif // MSPLIB_FUNCTIONAL_ARCH_STATE_HH
