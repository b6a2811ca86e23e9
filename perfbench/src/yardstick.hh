/**
 * @file
 * Host-speed yardstick: a small register-machine interpreter running one
 * fixed program.
 *
 * The benchmark times it between jobs to follow the host's speed. It is
 * self-contained on purpose: it links nothing from the simulator and is
 * compiled with the benchmark's own flags, so no change to the
 * simulator's sources or build can move it. Its program, memory size
 * and instruction mix are frozen here; changing any of them changes
 * every scaled host time, so treat an edit as a new benchmark.
 *
 * The kernel is interpreter-shaped like the simulator's hot loops: a
 * dispatch switch per instruction, data-dependent branches, and loads
 * and stores scattered over a 4 MiB memory. The memory size matters:
 * much of the host's drift is contention for the shared caches, and
 * with 4 MiB the yardstick's time swings about as much as the
 * simulator's, where a 256 KiB memory swung about 1.4x less.
 */

#ifndef PERFBENCH_YARDSTICK_HH
#define PERFBENCH_YARDSTICK_HH

#include <cstdint>
#include <vector>

namespace perfbench {

class Yardstick
{
  public:
    Yardstick();

    /**
     * Interpret @p n instructions from reset registers. Memory carries
     * over from the previous run (resetting 4 MiB would add a copy to
     * every sample), so runs do the same kind of work, not identical
     * work. Returns a checksum of the final registers.
     */
    std::uint64_t run(std::uint64_t n);

  private:
    struct Op
    {
        std::uint8_t code;
        std::uint8_t rd;
        std::uint8_t rs1;
        std::uint8_t rs2;
        std::int32_t imm;
    };

    std::vector<Op> prog;
    std::vector<std::uint64_t> mem;
};

} // namespace perfbench

#endif // PERFBENCH_YARDSTICK_HH
