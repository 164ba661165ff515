#include "server/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/logging.hh"
#include "util/number_text.hh"

namespace bwwall {

namespace {

constexpr int kMaxDepth = 64;

/** Cursor over the input text with positioned error reporting. */
struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &message)
    {
        if (error.empty()) {
            std::ostringstream oss;
            oss << message << " at byte " << pos;
            error = oss.str();
        }
        return false;
    }

    bool atEnd() const { return pos >= text.size(); }

    char peek() const { return atEnd() ? '\0' : text[pos]; }

    void
    skipSpace()
    {
        while (!atEnd()) {
            const char c = text[pos];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos;
        }
    }

    bool
    consume(char expected)
    {
        if (peek() != expected)
            return fail(std::string("expected '") + expected + "'");
        ++pos;
        return true;
    }

    bool
    consumeWord(const char *word)
    {
        for (const char *c = word; *c != '\0'; ++c, ++pos) {
            if (atEnd() || text[pos] != *c)
                return fail(std::string("bad literal; expected '") +
                            word + "'");
        }
        return true;
    }

    bool parseValue(JsonValue *out, int depth);
    bool parseString(std::string *out);
    bool parseNumber(JsonValue *out);
};

void
appendUtf8(std::string *out, std::uint32_t code)
{
    if (code < 0x80) {
        *out += static_cast<char>(code);
    } else if (code < 0x800) {
        *out += static_cast<char>(0xc0 | (code >> 6));
        *out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
        *out += static_cast<char>(0xe0 | (code >> 12));
        *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        *out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
        *out += static_cast<char>(0xf0 | (code >> 18));
        *out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
        *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        *out += static_cast<char>(0x80 | (code & 0x3f));
    }
}

bool
parseHex4(Parser &p, std::uint32_t *out)
{
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
        if (p.atEnd())
            return p.fail("truncated \\u escape");
        const char c = p.text[p.pos];
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= static_cast<std::uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= static_cast<std::uint32_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            value |= static_cast<std::uint32_t>(c - 'A' + 10);
        else
            return p.fail("bad hex digit in \\u escape");
        ++p.pos;
    }
    *out = value;
    return true;
}

bool
Parser::parseString(std::string *out)
{
    if (!consume('"'))
        return false;
    out->clear();
    while (true) {
        if (atEnd())
            return fail("unterminated string");
        const char c = text[pos];
        if (c == '"') {
            ++pos;
            return true;
        }
        if (static_cast<unsigned char>(c) < 0x20)
            return fail("unescaped control character in string");
        if (c != '\\') {
            *out += c;
            ++pos;
            continue;
        }
        ++pos; // the backslash
        if (atEnd())
            return fail("truncated escape");
        const char esc = text[pos];
        ++pos;
        switch (esc) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'n':
            *out += '\n';
            break;
          case 'r':
            *out += '\r';
            break;
          case 't':
            *out += '\t';
            break;
          case 'u': {
            std::uint32_t code = 0;
            if (!parseHex4(*this, &code))
                return false;
            if (code >= 0xd800 && code <= 0xdbff) {
                // High surrogate: a \uXXXX low surrogate must follow.
                if (pos + 1 >= text.size() || text[pos] != '\\' ||
                    text[pos + 1] != 'u')
                    return fail("unpaired high surrogate");
                pos += 2;
                std::uint32_t low = 0;
                if (!parseHex4(*this, &low))
                    return false;
                if (low < 0xdc00 || low > 0xdfff)
                    return fail("bad low surrogate");
                code = 0x10000 + ((code - 0xd800) << 10) +
                       (low - 0xdc00);
            } else if (code >= 0xdc00 && code <= 0xdfff) {
                return fail("unpaired low surrogate");
            }
            appendUtf8(out, code);
            break;
          }
          default:
            return fail("unknown escape");
        }
    }
}

bool
Parser::parseNumber(JsonValue *out)
{
    const std::size_t start = pos;
    if (peek() == '-')
        ++pos;
    if (atEnd() || text[pos] < '0' || text[pos] > '9')
        return fail("bad number");
    // JSON forbids leading zeros: 0 stands alone before . or e.
    if (text[pos] == '0' && pos + 1 < text.size() &&
        text[pos + 1] >= '0' && text[pos + 1] <= '9') {
        return fail("leading zero");
    }
    while (!atEnd() && text[pos] >= '0' && text[pos] <= '9')
        ++pos;
    if (!atEnd() && text[pos] == '.') {
        ++pos;
        if (atEnd() || text[pos] < '0' || text[pos] > '9')
            return fail("bad fraction");
        while (!atEnd() && text[pos] >= '0' && text[pos] <= '9')
            ++pos;
    }
    if (!atEnd() && (text[pos] == 'e' || text[pos] == 'E')) {
        ++pos;
        if (!atEnd() && (text[pos] == '+' || text[pos] == '-'))
            ++pos;
        if (atEnd() || text[pos] < '0' || text[pos] > '9')
            return fail("bad exponent");
        while (!atEnd() && text[pos] >= '0' && text[pos] <= '9')
            ++pos;
    }
    const std::string token = text.substr(start, pos - start);
    char *end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
        pos = start;
        return fail("unrepresentable number");
    }
    *out = JsonValue(value);
    return true;
}

bool
Parser::parseValue(JsonValue *out, int depth)
{
    if (depth > kMaxDepth)
        return fail("nesting too deep");
    skipSpace();
    if (atEnd())
        return fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        if (!consumeWord("null"))
            return false;
        *out = JsonValue();
        return true;
      case 't':
        if (!consumeWord("true"))
            return false;
        *out = JsonValue(true);
        return true;
      case 'f':
        if (!consumeWord("false"))
            return false;
        *out = JsonValue(false);
        return true;
      case '"': {
        std::string value;
        if (!parseString(&value))
            return false;
        *out = JsonValue(std::move(value));
        return true;
      }
      case '[': {
        ++pos;
        *out = JsonValue::makeArray();
        skipSpace();
        if (peek() == ']') {
            ++pos;
            return true;
        }
        while (true) {
            JsonValue element;
            if (!parseValue(&element, depth + 1))
                return false;
            out->append(std::move(element));
            skipSpace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            return consume(']');
        }
      }
      case '{': {
        ++pos;
        *out = JsonValue::makeObject();
        skipSpace();
        if (peek() == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(&key))
                return false;
            skipSpace();
            if (!consume(':'))
                return false;
            JsonValue element;
            if (!parseValue(&element, depth + 1))
                return false;
            out->set(key, std::move(element));
            skipSpace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            return consume('}');
        }
      }
      default:
        return parseNumber(out);
    }
}

void
dumpTo(const JsonValue &value, std::string *out)
{
    switch (value.kind()) {
      case JsonValue::Kind::Null:
        *out += "null";
        break;
      case JsonValue::Kind::Bool:
        *out += value.asBool() ? "true" : "false";
        break;
      case JsonValue::Kind::Number:
        appendDoubleText(*out, value.asNumber(), "null");
        break;
      case JsonValue::Kind::String:
        *out += '"';
        *out += jsonEscapeText(value.asString());
        *out += '"';
        break;
      case JsonValue::Kind::Array: {
        *out += '[';
        bool first = true;
        for (const JsonValue &element : value.items()) {
            if (!first)
                *out += ',';
            dumpTo(element, out);
            first = false;
        }
        *out += ']';
        break;
      }
      case JsonValue::Kind::Object: {
        *out += '{';
        bool first = true;
        for (const auto &[key, element] : value.members()) {
            if (!first)
                *out += ',';
            *out += '"';
            *out += jsonEscapeText(key);
            *out += "\":";
            dumpTo(element, out);
            first = false;
        }
        *out += '}';
        break;
      }
    }
}

} // namespace

JsonValue
JsonValue::makeArray()
{
    JsonValue value;
    value.kind_ = Kind::Array;
    return value;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue value;
    value.kind_ = Kind::Object;
    return value;
}

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        panic("JsonValue::asBool on a non-bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::Number)
        panic("JsonValue::asNumber on a non-number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        panic("JsonValue::asString on a non-string");
    return string_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (kind_ != Kind::Array)
        panic("JsonValue::items on a non-array");
    return array_;
}

const std::map<std::string, JsonValue> &
JsonValue::members() const
{
    if (kind_ != Kind::Object)
        panic("JsonValue::members on a non-object");
    return object_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    const auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
}

void
JsonValue::set(const std::string &key, JsonValue value)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    if (kind_ != Kind::Object)
        panic("JsonValue::set on a non-object");
    object_.insert_or_assign(key, std::move(value));
}

void
JsonValue::append(JsonValue value)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    if (kind_ != Kind::Array)
        panic("JsonValue::append on a non-array");
    array_.push_back(std::move(value));
}

std::string
JsonValue::dump() const
{
    std::string out;
    dumpTo(*this, &out);
    return out;
}

bool
JsonValue::parse(const std::string &text, JsonValue *out,
                 std::string *error)
{
    Parser parser{text, 0, {}};
    JsonValue value;
    if (!parser.parseValue(&value, 0)) {
        if (error != nullptr)
            *error = parser.error;
        return false;
    }
    parser.skipSpace();
    if (!parser.atEnd()) {
        parser.fail("trailing characters after value");
        if (error != nullptr)
            *error = parser.error;
        return false;
    }
    *out = std::move(value);
    return true;
}

std::string
jsonNumberText(double value)
{
    std::string text;
    appendDoubleText(text, value, "null");
    return text;
}

std::string
jsonEscapeText(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<int>(c));
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace bwwall
