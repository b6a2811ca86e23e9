/**
 * @file
 * A complete executable image: code, initial data, and memory geometry.
 */

#ifndef MSPLIB_ISA_PROGRAM_HH
#define MSPLIB_ISA_PROGRAM_HH

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace msp {

/**
 * The initial data words of a program: one immutable image shared by
 * every copy of the Program that holds it. Reading never copies.
 * edit() copies the words first unless this handle is their only
 * holder, so mutating one Program copy never changes another copy or
 * an ArchState built from one (ArchState keeps shared()).
 */
class DataImage
{
  public:
    using Words = std::vector<std::uint64_t>;
    using const_iterator = Words::const_iterator;

    DataImage() = default;
    DataImage(Words w)
        : words(w.empty() ? nullptr
                          : std::make_shared<Words>(std::move(w)))
    {}
    DataImage(std::initializer_list<std::uint64_t> w) : DataImage(Words(w))
    {}

    /** The words, read-only (an empty vector when there are none). */
    const Words &
    view() const
    {
        static const Words none;
        return words ? *words : none;
    }

    std::size_t size() const { return words ? words->size() : 0; }
    bool empty() const { return size() == 0; }
    std::uint64_t operator[](std::size_t i) const { return (*words)[i]; }
    const_iterator begin() const { return view().begin(); }
    const_iterator end() const { return view().end(); }

    /**
     * The words for writing. Copies them first when another Program
     * or ArchState shares them; call once per batch of edits, not per
     * word.
     */
    Words &
    edit()
    {
        if (!words) {
            words = std::make_shared<Words>();
        } else if (words.use_count() != 1) {
            words = std::make_shared<Words>(*words);
        } else {
            // The last other holder may have just let go on another
            // thread: order its reads before our writes.
            std::atomic_thread_fence(std::memory_order_acquire);
        }
        return *words;
    }

    /** Shared ownership of the words (null when there are none). */
    std::shared_ptr<const Words> shared() const { return words; }

    friend bool
    operator==(const DataImage &a, const DataImage &b)
    {
        return a.words == b.words || a.view() == b.view();
    }

  private:
    std::shared_ptr<Words> words;
};

/**
 * An executable program.
 *
 * PCs are instruction indices into @ref code. Data memory is a flat
 * array of 8-byte words at byte addresses [0, memWords * 8); every
 * effective address is masked into this range so that wrong-path
 * execution can never fault the simulator. The instruction stream is
 * mapped at @ref codeBase for I-cache purposes. Copies share
 * @ref initData; only @ref code is copied.
 */
struct Program
{
    std::string name;
    std::vector<Instruction> code;
    DataImage initData;                   ///< initial words at address 0
    std::size_t memWords = 1 << 16;       ///< must be a power of two
    Addr entry = 0;                       ///< starting pc (instruction index)
    Addr codeBase = 0x4000000;            ///< byte base of the code image

    /** Byte address of the instruction at @p pc (for the I-cache). */
    Addr
    pcToAddr(Addr pc) const
    {
        return codeBase + pc * 4;
    }

    /** Mask that keeps any byte address inside data memory. */
    Addr
    addrMask() const
    {
        return static_cast<Addr>(memWords) * wordBytes - 1;
    }

    /** Fetch the static instruction at @p pc (clamped into the image). */
    const Instruction &
    at(Addr pc) const
    {
        return code[pc % code.size()];
    }

    /** Number of static instructions. */
    std::size_t size() const { return code.size(); }
};

} // namespace msp

#endif // MSPLIB_ISA_PROGRAM_HH
