#include "stats/json.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace lp::stats
{

std::string
JsonValue::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char ch : s) {
        switch (ch) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n";  break;
          case '\r': out += "\\r";  break;
          case '\t': out += "\\t";  break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(ch));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string
JsonValue::number(double v)
{
    if (!std::isfinite(v))
        return "null";  // JSON has no NaN/Inf
    // Integers print without a fraction; everything else with enough
    // digits to round-trip.
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
JsonValue::render() const
{
    struct Visitor
    {
        std::string
        operator()(double v) const
        {
            return number(v);
        }

        std::string
        operator()(const std::string &s) const
        {
            // reserve/append, not "\"" + escape(s) + "\"": GCC 12
            // at -O3 reports a false -Wrestrict in the operator+ form.
            const std::string body = escape(s);
            std::string out;
            out.reserve(body.size() + 2);
            out.append(1, '"').append(body).append(1, '"');
            return out;
        }

        std::string
        operator()(const Raw &r) const
        {
            return r.text;
        }

        std::string
        operator()(const Array &arr) const
        {
            std::ostringstream os;
            os << '[';
            bool first = true;
            for (const auto &val : arr) {
                if (!first)
                    os << ',';
                first = false;
                os << val.render();
            }
            os << ']';
            return os.str();
        }

        std::string
        operator()(const Object &obj) const
        {
            std::ostringstream os;
            os << '{';
            bool first = true;
            for (const auto &[key, val] : obj) {
                if (!first)
                    os << ',';
                first = false;
                os << '"' << escape(key) << "\":" << val.render();
            }
            os << '}';
            return os.str();
        }
    };
    return std::visit(Visitor{}, value);
}

JsonValue::Object
toJson(const Snapshot &snap)
{
    JsonValue::Object obj;
    for (const auto &[key, val] : snap)
        obj.emplace(key, JsonValue(val));
    return obj;
}

} // namespace lp::stats
