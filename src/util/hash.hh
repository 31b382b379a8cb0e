/**
 * @file
 * Stable content hashing and 16-digit hex encoding.
 *
 * AVScope names things by content: an experiment's cache key
 * (exp::cacheKey), a recorded drive (exp::driveKey) and each fault's
 * Rng stream (fault::faultSalt) are all FNV-1a hashes over a
 * canonical field encoding. Those values are persisted (cache file
 * names) and seed simulated randomness, so the encoding is fixed
 * here once: it must not depend on the host's byte order or on how
 * a caller spells a fold.
 */

#ifndef AVSCOPE_UTIL_HASH_HH
#define AVSCOPE_UTIL_HASH_HH

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace av::util {

/**
 * Streaming 64-bit FNV-1a.
 *
 * Every value folds as its exact bit pattern: integers, enums and
 * bools as eight explicit little-endian bytes, doubles via bit_cast
 * (so -0.0 vs 0.0 and every NaN payload are distinct), text as its
 * bytes followed by a 0xff separator that never occurs in a name, so
 * "ab"+"c" and "a"+"bc" differ. Callers salt each struct boundary
 * with a text tag so adjacent field sequences cannot alias.
 */
class Hasher
{
  public:
    void u64(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(value >> (8 * i)));
    }

    void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

    void text(std::string_view value)
    {
        for (const char c : value)
            byte(static_cast<unsigned char>(c));
        byte(0xff);
    }

    /**
     * Fold each of @p values in order, by type: doubles via f64(),
     * integers, enums and bools via u64(), anything else (strings,
     * tags) via text().
     */
    template <class... T>
    void fields(const T &...values)
    {
        (field(values), ...);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ULL;

    void byte(unsigned char b)
    {
        hash_ ^= b;
        hash_ *= 1099511628211ULL;
    }

    template <class T>
    void field(const T &value)
    {
        if constexpr (std::is_same_v<T, double>)
            f64(value);
        else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>)
            u64(static_cast<std::uint64_t>(value));
        else
            text(value);
    }
};

/** @p value as 16 lowercase hex digits, most significant first. */
std::string hex16(std::uint64_t value);

/** Inverse of hex16(); false unless @p text is exactly its form. */
bool parseHex16(std::string_view text, std::uint64_t &out);

} // namespace av::util

#endif // AVSCOPE_UTIL_HASH_HH
