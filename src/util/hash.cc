#include "util/hash.hh"

namespace av::util {

std::string
hex16(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

bool
parseHex16(std::string_view text, std::uint64_t &out)
{
    if (text.size() != 16)
        return false;
    std::uint64_t bits = 0;
    for (const char c : text) {
        std::uint64_t digit = 0;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a') + 10;
        else
            return false;
        bits = (bits << 4) | digit;
    }
    out = bits;
    return true;
}

} // namespace av::util
