/**
 * @file
 * Strong-typed scalar units used throughout the simulator.
 *
 * Each unit is a tagged wrapper over its integer representation:
 * construction from a raw integer is explicit, so a bare uint64_t (or
 * a value of another unit) can never silently flow into a parameter
 * typed Tick/Bytes/Pfn/TierId/FrameCount/AccessCount — unit
 * confusion is a compile error. Conversion *out* to the
 * representation is implicit, so indexing, comparisons, trace-arg
 * packing, and printf-casts keep working unchanged.
 *
 * Each unit defines only the arithmetic it legally supports (e.g.
 * Tick+Tick, Bytes*count, Pfn+offset). Any other operation decays to
 * the raw representation via the implicit conversion and must be
 * explicitly re-tagged before it can re-enter a typed API, which is
 * exactly the review point we want the compiler to force.
 *
 * klint (tools/klint) rule `units` rejects raw 64-bit parameters in
 * the public headers of mem/, fs/ and alloc/ where one of these
 * units applies; see docs/ANALYSIS.md.
 */

#ifndef KLOC_BASE_UNITS_HH
#define KLOC_BASE_UNITS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>

namespace kloc {

/**
 * Tagged integer wrapper. @p Tag makes each instantiation a distinct
 * type; @p RepT is the underlying representation.
 */
template <class Tag, class RepT>
class StrongUnit
{
  public:
    using Rep = RepT;

    constexpr StrongUnit() = default;
    explicit constexpr StrongUnit(Rep v) : _v(v) {}

    /** Implicit read-out keeps raw-integer contexts working. */
    constexpr operator Rep() const { return _v; }

    /** Explicit spelling of the read-out for emphasis at call sites. */
    constexpr Rep value() const { return _v; }

  private:
    Rep _v{};
};

template <class T>
concept UnitScalar = std::is_integral_v<T> && !std::is_same_v<T, bool>;

// ---------------------------------------------------------------------------
// Tick: virtual time in nanoseconds. Supports the affine-time algebra
// (sum/difference of durations, scaling by a dimensionless count).

struct TickTag {};
using Tick = StrongUnit<TickTag, int64_t>;

constexpr Tick operator+(Tick a, Tick b) { return Tick{a.value() + b.value()}; }
constexpr Tick operator-(Tick a, Tick b) { return Tick{a.value() - b.value()}; }
constexpr Tick operator-(Tick a) { return Tick{-a.value()}; }
template <UnitScalar T>
constexpr Tick operator*(Tick a, T n) { return Tick{a.value() * static_cast<int64_t>(n)}; }
template <UnitScalar T>
constexpr Tick operator*(T n, Tick a) { return Tick{static_cast<int64_t>(n) * a.value()}; }
template <UnitScalar T>
constexpr Tick operator/(Tick a, T n) { return Tick{a.value() / static_cast<int64_t>(n)}; }
constexpr Tick &operator+=(Tick &a, Tick b) { return a = a + b; }
constexpr Tick &operator-=(Tick &a, Tick b) { return a = a - b; }
template <UnitScalar T>
constexpr Tick &operator*=(Tick &a, T n) { return a = a * n; }
template <UnitScalar T>
constexpr Tick &operator/=(Tick &a, T n) { return a = a / n; }

// ---------------------------------------------------------------------------
// Bytes: capacity or transfer size. Same algebra as Tick, unsigned.

struct BytesTag {};
using Bytes = StrongUnit<BytesTag, uint64_t>;

constexpr Bytes operator+(Bytes a, Bytes b) { return Bytes{a.value() + b.value()}; }
constexpr Bytes operator-(Bytes a, Bytes b) { return Bytes{a.value() - b.value()}; }
template <UnitScalar T>
constexpr Bytes operator*(Bytes a, T n) { return Bytes{a.value() * static_cast<uint64_t>(n)}; }
template <UnitScalar T>
constexpr Bytes operator*(T n, Bytes a) { return Bytes{static_cast<uint64_t>(n) * a.value()}; }
template <UnitScalar T>
constexpr Bytes operator/(Bytes a, T n) { return Bytes{a.value() / static_cast<uint64_t>(n)}; }
constexpr Bytes &operator+=(Bytes &a, Bytes b) { return a = a + b; }
constexpr Bytes &operator-=(Bytes &a, Bytes b) { return a = a - b; }
template <UnitScalar T>
constexpr Bytes &operator*=(Bytes &a, T n) { return a = a * n; }
template <UnitScalar T>
constexpr Bytes &operator/=(Bytes &a, T n) { return a = a / n; }

// ---------------------------------------------------------------------------
// Pfn: simulated physical frame number. An ordinal, not a quantity:
// only offset arithmetic is legal; Pfn+Pfn has no meaning and decays
// to raw uint64_t (which cannot implicitly become a Pfn again).

struct PfnTag {};
using Pfn = StrongUnit<PfnTag, uint64_t>;

template <UnitScalar T>
constexpr Pfn operator+(Pfn a, T n) { return Pfn{a.value() + static_cast<uint64_t>(n)}; }
template <UnitScalar T>
constexpr Pfn operator-(Pfn a, T n) { return Pfn{a.value() - static_cast<uint64_t>(n)}; }
constexpr Pfn &operator++(Pfn &a) { return a = a + 1; }
template <UnitScalar T>
constexpr Pfn &operator+=(Pfn &a, T n) { return a = a + n; }

// ---------------------------------------------------------------------------
// TierId: identifier of a memory tier (index into the MemoryModel's
// spec table). Pure identity — no arithmetic beyond the increment
// needed to iterate the tier table.

struct TierIdTag {};
using TierId = StrongUnit<TierIdTag, int>;

constexpr TierId &operator++(TierId &a) { return a = TierId{a.value() + 1}; }

/** Sentinel for "no tier". */
inline constexpr TierId kInvalidTier{-1};

// ---------------------------------------------------------------------------
// FrameCount: a number of 4 KiB pages/frames. Counting algebra plus
// the one legal mixed product: pages × page-size = bytes.

struct FrameCountTag {};
using FrameCount = StrongUnit<FrameCountTag, uint64_t>;

constexpr FrameCount operator+(FrameCount a, FrameCount b) { return FrameCount{a.value() + b.value()}; }
constexpr FrameCount operator-(FrameCount a, FrameCount b) { return FrameCount{a.value() - b.value()}; }
template <UnitScalar T>
constexpr FrameCount operator*(FrameCount a, T n) { return FrameCount{a.value() * static_cast<uint64_t>(n)}; }
constexpr FrameCount &operator+=(FrameCount &a, FrameCount b) { return a = a + b; }
constexpr FrameCount &operator-=(FrameCount &a, FrameCount b) { return a = a - b; }
constexpr FrameCount &operator++(FrameCount &a) { return a = a + FrameCount{1}; }

constexpr Bytes operator*(FrameCount pages, Bytes page_size)
{
    return Bytes{pages.value() * page_size.value()};
}

constexpr Bytes operator*(Bytes page_size, FrameCount pages)
{
    return Bytes{page_size.value() * pages.value()};
}

// ---------------------------------------------------------------------------
// AccessCount: a number of back-to-back accesses to one object (a
// touch run). Counting algebra only.

struct AccessCountTag {};
using AccessCount = StrongUnit<AccessCountTag, uint64_t>;

constexpr AccessCount operator-(AccessCount a, AccessCount b) { return AccessCount{a.value() - b.value()}; }
constexpr AccessCount &operator-=(AccessCount &a, AccessCount b) { return a = a - b; }

// ---------------------------------------------------------------------------
// Constants and helpers.

/** Sentinel for "no frame". */
inline constexpr Pfn kInvalidPfn{~0ULL};

/** Simulated page size. Everything in the kernel is 4 KB-page based. */
inline constexpr Bytes kPageSize{4096};
inline constexpr unsigned kPageShift = 12;

// Time helpers (ns-denominated Ticks).
inline constexpr Tick kNanosecond{1};
inline constexpr Tick kMicrosecond = 1000 * kNanosecond;
inline constexpr Tick kMillisecond = 1000 * kMicrosecond;
inline constexpr Tick kSecond = 1000 * kMillisecond;

// Size helpers.
inline constexpr Bytes kKiB{1024};
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

/** Round @p bytes up to whole pages. */
constexpr FrameCount
pagesFor(Bytes bytes)
{
    return FrameCount{(bytes.value() + kPageSize.value() - 1) >> kPageShift};
}

/** Whole pages in @p bytes (which must be page-aligned capacity). */
constexpr FrameCount
framesIn(Bytes bytes)
{
    return FrameCount{bytes.value() / kPageSize.value()};
}

/**
 * Time to move @p bytes at @p bytes_per_sec of bandwidth, in Ticks.
 * Uses 128-bit intermediates so multi-GiB transfers cannot overflow.
 */
constexpr Tick
transferTime(Bytes bytes, Bytes bytes_per_sec)
{
    if (bytes_per_sec.value() == 0)
        return Tick{0};
    return Tick{static_cast<int64_t>(
        (static_cast<__int128>(bytes.value()) * kSecond.value()) /
        bytes_per_sec.value())};
}

} // namespace kloc

// Hash support so strong units can key unordered containers (keyed
// lookups stay deterministic; iteration over them is what klint's
// determinism rule polices).
template <class Tag, class Rep>
struct std::hash<kloc::StrongUnit<Tag, Rep>>
{
    size_t
    operator()(const kloc::StrongUnit<Tag, Rep> &u) const noexcept
    {
        return std::hash<Rep>{}(u.value());
    }
};

#endif // KLOC_BASE_UNITS_HH
