/**
 * @file
 * The calibration kernel: a fixed piece of benchmark-owned work timed
 * in short bursts beside every workload, so wall-clock figures can be
 * read in units of what this host delivers at the moment.
 *
 * A shared virtual machine's speed swings by up to 2× over tens of
 * seconds, so absolute ns per task do not repeat from one run to the
 * next. Dividing by a reference that runs the library's own code (the
 * untraced pass) cancels the swing but inverts the reading for every
 * change to that code: a faster runtime makes traced ÷ untraced
 * larger. The kernel shares no code with the library, so a figure over
 * it moves with the program's cost, in the same direction, while the
 * host's swing cancels.
 *
 * One kernel operation first-touches a fresh page of a private anonymous
 * mapping and makes four find-then-insert-or-erase steps on a hash map
 * of up to 65536 keys. The swings on the hosts measured follow the
 * price of the page faults and allocator traffic that the stack under
 * test also pays (README.md records the candidates tried), and neither
 * part depends on anything the library does.
 */
#ifndef E2EBENCH_CALIBRATION_H
#define E2EBENCH_CALIBRATION_H

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace e2e {

class Calibration {
  public:
    /** Operations per burst. */
    static constexpr std::size_t kOpsPerBurst = 16;

    /** Run one burst and keep its wall ns per operation. */
    void Burst();

    /** The kept per-burst samples since the last call. */
    std::vector<double> TakeSamples();

  private:
    std::unordered_map<std::uint64_t, std::uint64_t> map_;
    std::uint64_t key_ = 0;
    std::vector<double> samples_;
};

}  // namespace e2e

#endif  // E2EBENCH_CALIBRATION_H
