#include "functional/arch_state.hh"

#include <algorithm>

namespace msp {

namespace {

/** What every page past the initial image reads until its first store. */
alignas(64) constexpr std::uint64_t zeroPage[ArchState::pageWords] = {};

} // anonymous namespace

ArchState::ArchState(const Program &prog)
    : image(prog.initData.shared()), words(prog.memWords),
      mask(prog.addrMask())
{
    msp_assert(words != 0 && (words & (words - 1)) == 0,
               "memWords %zu is not a power of two", words);
    const std::size_t len = pageLen();
    const std::size_t init = image ? image->size() : 0;
    msp_assert(init <= words, "initData (%zu words) exceeds memWords (%zu)",
               init, words);
    pages.resize(words / len);
    const std::size_t full = init / len;
    for (std::size_t p = 0; p < full; ++p)
        pages[p].read = image->data() + p * len;
    for (std::size_t p = full; p < pages.size(); ++p)
        pages[p].read = zeroPage;
    if (init % len != 0) {
        // The partial tail: the shared image ends mid-page.
        Page &tail = pages[full];
        own(tail);
        std::copy(image->begin() + full * len, image->end(),
                  tail.own.get());
    }
}

ArchState::ArchState(const ArchState &o)
    : intRegs(o.intRegs), fpRegs(o.fpRegs), pages(o.pages.size()),
      image(o.image), words(o.words), mask(o.mask)
{
    for (std::size_t p = 0; p < pages.size(); ++p) {
        pages[p].read = o.pages[p].read;
        if (o.pages[p].own)
            own(pages[p]);
    }
}

ArchState &
ArchState::operator=(const ArchState &o)
{
    if (this != &o)
        *this = ArchState(o);
    return *this;
}

void
ArchState::own(Page &pg)
{
    const std::size_t len = pageLen();
    pg.own = std::make_unique_for_overwrite<std::uint64_t[]>(len);
    std::copy_n(pg.read, len, pg.own.get());
    pg.read = pg.own.get();
}

std::size_t
ArchState::ownedPages() const
{
    return static_cast<std::size_t>(
        std::count_if(pages.begin(), pages.end(),
                      [](const Page &pg) { return pg.own != nullptr; }));
}

std::size_t
ArchState::firstMemDiff(const ArchState &o, std::size_t from) const
{
    msp_assert(words == o.words, "comparing %zu-word and %zu-word memories",
               words, o.words);
    const std::size_t len = pageLen();
    for (std::size_t p = from / len; p < pages.size(); ++p) {
        const std::uint64_t *a = pages[p].read;
        const std::uint64_t *b = o.pages[p].read;
        if (a == b)
            continue;
        const std::size_t base = p * len;
        for (std::size_t i = from > base ? from - base : 0; i < len; ++i) {
            if (a[i] != b[i])
                return base + i;
        }
    }
    return words;
}

bool
ArchState::operator==(const ArchState &o) const
{
    return intRegs == o.intRegs && fpRegs == o.fpRegs &&
           words == o.words && firstMemDiff(o) == words;
}

} // namespace msp
