/**
 * @file
 * The repo's one JSON module, header-only and without external
 * dependencies: a recursive-descent parser and a writer. Every JSON
 * document the benches, tools and exporters read or write goes through
 * these two, except that the Chrome trace's rows are formatted by hand
 * (obs/export.cpp) and only share escape().
 *
 * Parser: numbers keep their raw token alongside the double so 64-bit
 * integers read back exactly (asU64/asI64); \uXXXX escapes decode to
 * UTF-8, surrogate pairs included. Strings must follow RFC 8259: raw
 * control characters and unknown escapes are errors. parseMember keeps
 * one top-level member and only checks the rest, so a reader of one
 * section of a large trace does not build a tree of the whole file.
 *
 * Writer: escaping, commas and indentation are handled; integers are
 * exact, doubles use a caller-given printf format, and a parsed Value
 * re-emits token for token.
 */

#ifndef BPD_OBS_JSON_HPP
#define BPD_OBS_JSON_HPP

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bpd::obs::json {

struct Value
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string raw; //!< number token, parsed or from integer()/number()
    std::string str;
    std::vector<Value> arr;
    std::map<std::string, Value> obj;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }

    /** True when the raw token has no fraction/exponent part. */
    bool isIntegerToken() const
    {
        return !raw.empty()
               && raw.find_first_of(".eE") == std::string::npos;
    }

    /**
     * Exact unsigned 64-bit read. A double only holds 53 bits of
     * mantissa, so values like 2^53+1 or 0xFFFFFFFFFFFFFFFF round
     * when read via `number`; integer tokens re-parse from the raw
     * text instead.
     */
    std::uint64_t asU64() const
    {
        if (isIntegerToken())
            return std::strtoull(raw.c_str(), nullptr, 10);
        return static_cast<std::uint64_t>(number);
    }

    /** Exact signed 64-bit read (see asU64). */
    std::int64_t asI64() const
    {
        if (isIntegerToken())
            return std::strtoll(raw.c_str(), nullptr, 10);
        return static_cast<std::int64_t>(number);
    }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const
    {
        if (type != Type::Object)
            return nullptr;
        auto it = obj.find(key);
        return it == obj.end() ? nullptr : &it->second;
    }

    bool operator==(const Value &) const = default;
};

class Parser
{
  public:
    Parser(const char *text, std::size_t len)
        : begin_(text), p_(text), end_(text + len)
    {
    }

    bool parse(Value &out, std::string &err)
    {
        skipWs();
        return parseValue(&out, err) && atEnd(err);
    }

    /**
     * Parse a document whose root is an object, keeping only its member
     * @p key in @p out (Null when absent). Every other member is still
     * checked, one element at a time, but nothing of it is kept.
     */
    bool parseMember(std::string_view key, Value &out, std::string &err)
    {
        skipWs();
        if (p_ == end_ || *p_ != '{')
            return fail(err, "expected an object");
        Value root;
        if (!parseObject(&root, err, &key) || !atEnd(err))
            return false;
        auto it = root.obj.find(std::string(key));
        out = it == root.obj.end() ? Value{} : std::move(it->second);
        return true;
    }

  private:
    bool atEnd(std::string &err)
    {
        skipWs();
        if (p_ == end_)
            return true;
        err = "trailing data at offset " + std::to_string(p_ - begin_);
        return false;
    }

    void skipWs()
    {
        while (p_ != end_
               && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n'
                   || *p_ == '\r'))
            ++p_;
    }

    bool fail(std::string &err, const std::string &what)
    {
        err = what + " near offset " + std::to_string(p_ - begin_);
        return false;
    }

    /** Parse one value into @p out; with null @p out, check it only. */
    bool parseValue(Value *out, std::string &err)
    {
        if (p_ == end_)
            return fail(err, "unexpected end of input");
        Value &v = out ? *out : scratch_;
        switch (*p_) {
        case '{': return parseObject(out, err);
        case '[': return parseArray(out, err);
        case '"':
            v.type = Value::Type::String;
            return parseString(v.str, err);
        case 't':
        case 'f': return parseBool(v, err);
        case 'n': return parseNull(v, err);
        default: return parseNumber(v, err);
        }
    }

    /** With @p only set, keep just that member of the object. */
    bool parseObject(Value *out, std::string &err,
                     const std::string_view *only = nullptr)
    {
        if (out)
            out->type = Value::Type::Object;
        ++p_; // '{'
        skipWs();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        while (true) {
            skipWs();
            if (p_ == end_ || *p_ != '"')
                return fail(err, "expected object key");
            std::string key;
            if (!parseString(key, err))
                return false;
            skipWs();
            if (p_ == end_ || *p_ != ':')
                return fail(err, "expected ':'");
            ++p_;
            skipWs();
            Value *member
                = out && (!only || key == *only) ? &out->obj[key] : nullptr;
            if (!parseValue(member, err))
                return false;
            skipWs();
            if (p_ == end_)
                return fail(err, "unterminated object");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == '}') {
                ++p_;
                return true;
            }
            return fail(err, "expected ',' or '}'");
        }
    }

    bool parseArray(Value *out, std::string &err)
    {
        if (out)
            out->type = Value::Type::Array;
        ++p_; // '['
        skipWs();
        if (p_ != end_ && *p_ == ']') {
            ++p_;
            return true;
        }
        while (true) {
            skipWs();
            if (!parseValue(out ? &out->arr.emplace_back() : nullptr, err))
                return false;
            skipWs();
            if (p_ == end_)
                return fail(err, "unterminated array");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == ']') {
                ++p_;
                return true;
            }
            return fail(err, "expected ',' or ']'");
        }
    }

    bool parseString(std::string &out, std::string &err)
    {
        ++p_; // opening quote
        out.clear();
        while (p_ != end_ && *p_ != '"') {
            if (*p_ == '\\') {
                ++p_;
                if (p_ == end_)
                    return fail(err, "unterminated escape");
                switch (*p_) {
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case '"':
                case '\\':
                case '/': out += *p_; break;
                case 'u': {
                    unsigned cp = 0;
                    if (!parseHex4(cp, err))
                        return false;
                    if (cp >= 0xD800 && cp <= 0xDBFF
                        && end_ - p_ >= 7 && p_[1] == '\\'
                        && p_[2] == 'u') {
                        // High surrogate followed by another escape:
                        // combine if it is a low surrogate, otherwise
                        // rewind and let the loop handle it.
                        const char *save = p_;
                        p_ += 2;
                        unsigned lo = 0;
                        if (!parseHex4(lo, err))
                            return false;
                        if (lo >= 0xDC00 && lo <= 0xDFFF)
                            cp = 0x10000 + ((cp - 0xD800) << 10)
                                 + (lo - 0xDC00);
                        else
                            p_ = save;
                    }
                    if (cp >= 0xD800 && cp <= 0xDFFF)
                        cp = 0xFFFD; // unpaired surrogate
                    appendUtf8(out, cp);
                    break;
                }
                default: return fail(err, "bad escape");
                }
                ++p_;
            } else if (static_cast<unsigned char>(*p_) < 0x20) {
                return fail(err, "unescaped control character in string");
            } else {
                out += *p_++;
            }
        }
        if (p_ == end_)
            return fail(err, "unterminated string");
        ++p_; // closing quote
        return true;
    }

    bool parseBool(Value &out, std::string &err)
    {
        out.type = Value::Type::Bool;
        if (end_ - p_ >= 4 && std::string(p_, p_ + 4) == "true") {
            out.boolean = true;
            p_ += 4;
            return true;
        }
        if (end_ - p_ >= 5 && std::string(p_, p_ + 5) == "false") {
            out.boolean = false;
            p_ += 5;
            return true;
        }
        return fail(err, "bad literal");
    }

    bool parseNull(Value &out, std::string &err)
    {
        if (end_ - p_ >= 4 && std::string(p_, p_ + 4) == "null") {
            out.type = Value::Type::Null;
            p_ += 4;
            return true;
        }
        return fail(err, "bad literal");
    }

    /**
     * Read XXXX of a \uXXXX escape. On entry @c p_ points at the 'u';
     * on success it points at the last hex digit (the loop's trailing
     * increment then steps past it).
     */
    bool parseHex4(unsigned &cp, std::string &err)
    {
        if (end_ - p_ < 5)
            return fail(err, "truncated \\u escape");
        cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = *++p_;
            unsigned d;
            if (c >= '0' && c <= '9')
                d = static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                d = static_cast<unsigned>(c - 'a') + 10;
            else if (c >= 'A' && c <= 'F')
                d = static_cast<unsigned>(c - 'A') + 10;
            else
                return fail(err, "bad \\u escape");
            cp = cp * 16 + d;
        }
        return true;
    }

    static void appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool parseNumber(Value &out, std::string &err)
    {
        char *numEnd = nullptr;
        out.type = Value::Type::Number;
        out.number = std::strtod(p_, &numEnd);
        if (numEnd == p_)
            return fail(err, "bad number");
        out.raw.assign(p_, static_cast<std::size_t>(numEnd - p_));
        p_ = numEnd;
        return true;
    }

    const char *begin_;
    const char *p_;
    const char *end_;
    Value scratch_; ///< scalars of values that are checked, not kept
};

/** Parse @p text; on failure returns false and sets @p err. */
inline bool parse(const std::string &text, Value &out, std::string &err)
{
    Parser p(text.data(), text.size());
    return p.parse(out, err);
}

/** Parser::parseMember over @p text. */
inline bool parseMember(const std::string &text, std::string_view key,
                        Value &out, std::string &err)
{
    Parser p(text.data(), text.size());
    return p.parseMember(key, out, err);
}

/**
 * Feed @p s to @p put(const char *, std::size_t) with the escapes RFC
 * 8259 requires: quote, backslash and every control character below
 * 0x20. Runs of plain bytes go out in one call.
 */
template <typename Put> void escape(std::string_view s, Put &&put)
{
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        put(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
        case '"': put("\\\"", 2); break;
        case '\\': put("\\\\", 2); break;
        case '\n': put("\\n", 2); break;
        case '\t': put("\\t", 2); break;
        case '\r': put("\\r", 2); break;
        case '\b': put("\\b", 2); break;
        case '\f': put("\\f", 2); break;
        default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            put(buf, 6);
        }
        }
    }
    put(s.data() + run, s.size() - run);
}

/** Exact integer Value. */
inline Value integer(std::uint64_t v)
{
    Value out;
    out.type = Value::Type::Number;
    out.number = static_cast<double>(v);
    out.raw = std::to_string(v);
    return out;
}

/**
 * @p v printed with printf format @p fmt, as the parser would read that
 * text back. JSON has no inf or nan, so a non-finite @p v is null.
 */
inline Value number(double v, const char *fmt)
{
    Value out;
    if (!std::isfinite(v))
        return out;
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    out.type = Value::Type::Number;
    out.number = std::strtod(buf, nullptr);
    out.raw = buf;
    return out;
}

inline Value string(std::string s)
{
    Value out;
    out.type = Value::Type::String;
    out.str = std::move(s);
    return out;
}

/**
 * Builds one document in memory. Each container puts its members on
 * lines of their own, indented two spaces per level, unless it is
 * opened one-line; everything inside a one-line container stays on
 * its line. Inside an object, key() precedes each value:
 *
 *   w.beginObject().key("hist").beginObject(true);
 *   w.key("p50").uint(p50).endObject().endObject();
 */
class Writer
{
  public:
    Writer &beginObject(bool oneLine = false) { return open('{', oneLine); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray(bool oneLine = false) { return open('[', oneLine); }
    Writer &endArray() { return close(']'); }

    Writer &key(std::string_view k)
    {
        str(k);
        out_ += ": ";
        keyed_ = true;
        return *this;
    }

    Writer &str(std::string_view s)
    {
        item();
        out_ += '"';
        escape(s, [this](const char *p, std::size_t n) {
            out_.append(p, n);
        });
        out_ += '"';
        return *this;
    }

    Writer &uint(std::uint64_t v) { return value(integer(v)); }
    Writer &num(double v, const char *fmt) { return value(number(v, fmt)); }
    Writer &boolean(bool b) { return token(b ? "true" : "false"); }

    /** Write @p v token for token: numbers as their raw text. */
    Writer &value(const Value &v)
    {
        switch (v.type) {
        case Value::Type::Null: token("null"); break;
        case Value::Type::Bool: boolean(v.boolean); break;
        case Value::Type::Number: token(v.raw); break;
        case Value::Type::String: str(v.str); break;
        case Value::Type::Array:
            beginArray();
            for (const Value &e : v.arr)
                value(e);
            endArray();
            break;
        case Value::Type::Object:
            beginObject();
            for (const auto &[k, e] : v.obj)
                key(k).value(e);
            endObject();
            break;
        }
        return *this;
    }

    /** The text so far; a whole document once the root has closed. */
    const std::string &text() const { return out_; }

  private:
    struct Frame
    {
        bool oneLine;
        bool empty;
    };

    Writer &token(std::string_view t)
    {
        item();
        out_ += t;
        return *this;
    }

    /** Separator and indentation ahead of a key or a value. */
    void item()
    {
        if (keyed_) {
            keyed_ = false;
            return;
        }
        if (stack_.empty())
            return;
        Frame &f = stack_.back();
        if (!f.empty)
            out_ += f.oneLine ? ", " : ",";
        if (!f.oneLine)
            newline(stack_.size());
        f.empty = false;
    }

    Writer &open(char c, bool oneLine)
    {
        item();
        oneLine |= !stack_.empty() && stack_.back().oneLine;
        stack_.push_back({oneLine, true});
        out_ += c;
        return *this;
    }

    Writer &close(char c)
    {
        const Frame f = stack_.back();
        stack_.pop_back();
        if (!f.empty && !f.oneLine)
            newline(stack_.size());
        out_ += c;
        if (stack_.empty())
            out_ += '\n';
        return *this;
    }

    void newline(std::size_t depth)
    {
        out_ += '\n';
        out_.append(2 * depth, ' ');
    }

    std::string out_;
    std::vector<Frame> stack_;
    bool keyed_ = false;
};

/** Write @p text to @p path; false on any I/O error. */
inline bool writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok
        = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace bpd::obs::json

#endif // BPD_OBS_JSON_HPP
