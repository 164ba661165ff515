/**
 * @file
 * Minimal JSON values for the model-query server.
 *
 * bwwalld speaks JSON on the wire with no third-party dependencies,
 * so this header supplies the whole round trip: a recursive-descent
 * parser that rejects malformed input with a positioned error
 * message (never exits — bad request bodies must become HTTP 400s,
 * not daemon deaths), and a canonical writer.  Canonical means
 * object keys sorted (std::map storage), no insignificant
 * whitespace, and integer-valued doubles printed without an
 * exponent — so two semantically identical requests serialize to
 * identical bytes, which is exactly what the result cache hashes.
 */

#ifndef BWWALL_SERVER_JSON_HH
#define BWWALL_SERVER_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bwwall {

/** One JSON value: null, bool, number, string, array, or object. */
class JsonValue
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;
    explicit JsonValue(bool value) : kind_(Kind::Bool), bool_(value)
    {}
    explicit JsonValue(double value)
        : kind_(Kind::Number), number_(value)
    {}
    explicit JsonValue(const char *value)
        : kind_(Kind::String), string_(value)
    {}
    explicit JsonValue(std::string value)
        : kind_(Kind::String), string_(std::move(value))
    {}

    /** Empty array / object factories. */
    static JsonValue makeArray();
    static JsonValue makeObject();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; panic on kind mismatch (caller checks). */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &items() const;
    const std::map<std::string, JsonValue> &members() const;

    /** Object lookup; nullptr when absent (or not an object). */
    const JsonValue *find(const std::string &key) const;

    /** Object insertion (makes this an object when Null). */
    void set(const std::string &key, JsonValue value);

    /** Array append (makes this an array when Null). */
    void append(JsonValue value);

    /** Canonical compact serialization (sorted keys, no spaces). */
    std::string dump() const;

    /**
     * Parses `text` into *out.  On failure returns false and, when
     * error is non-null, stores a human-readable diagnostic with the
     * byte offset.  Rejects trailing garbage and nesting deeper than
     * 64 levels.
     */
    static bool parse(const std::string &text, JsonValue *out,
                      std::string *error = nullptr);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

/**
 * A number as dump() writes it: appendDoubleText()
 * (util/number_text.hh), with null for an infinity or a NaN, which
 * JSON cannot spell.
 */
std::string jsonNumberText(double value);

/** Escapes a string for inclusion in a JSON string literal. */
std::string jsonEscapeText(const std::string &text);

} // namespace bwwall

#endif // BWWALL_SERVER_JSON_HH
