#include "calibration.h"

#include <sys/mman.h>
#include <unistd.h>

#include <stdexcept>
#include <utility>

#include "tracer.h"

namespace e2e {

namespace {

constexpr std::size_t kMapStepsPerOp = 4;
constexpr std::uint64_t kKeyMask = (1u << 16) - 1;

std::uint64_t
Mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 29;
    return x;
}

}  // namespace

void
Calibration::Burst()
{
    static const std::size_t page = static_cast<std::size_t>(
        sysconf(_SC_PAGESIZE));
    const std::size_t bytes = kOpsPerBurst * page;
    const std::int64_t t0 = NowNs();
    void* mapping = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mapping == MAP_FAILED) {
        throw std::runtime_error("calibration kernel: mmap failed");
    }
    volatile char* pages = static_cast<char*>(mapping);
    for (std::size_t op = 0; op < kOpsPerBurst; ++op) {
        pages[op * page] = 1;
        for (std::size_t step = 0; step < kMapStepsPerOp; ++step) {
            key_ += 1;
            const std::uint64_t key = Mix(key_) & kKeyMask;
            const auto it = map_.find(key);
            if (it == map_.end()) {
                map_.emplace(key, key_);
            } else {
                map_.erase(it);
            }
        }
    }
    munmap(mapping, bytes);
    samples_.push_back(static_cast<double>(NowNs() - t0) /
                       static_cast<double>(kOpsPerBurst));
}

std::vector<double>
Calibration::TakeSamples()
{
    return std::exchange(samples_, {});
}

}  // namespace e2e
