//===- service/Json.h - Minimal JSON for the wire protocol ------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small JSON reader/writer for the experiment service's
/// line-delimited wire protocol (service/Server.h). Covers exactly the
/// subset the protocol uses — objects, arrays, strings, finite numbers,
/// booleans, null — with strict parsing: trailing junk, unterminated
/// strings, or malformed numbers fail the parse with a positioned message
/// (which the service turns into a structured error reply, never a crash).
///
/// Doubles that must survive a round trip bit-exactly (simulated times,
/// energies, EDPs) travel as C99 hexfloat *strings* ("0x1.8p+3"), written
/// by hexDouble() and read by parseHexDouble(); %g-formatted decimal JSON
/// numbers are reserved for human-facing telemetry where a few ulps do not
/// matter. This mirrors how the native code cache keys content (exact
/// bits, not approximate values).
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SERVICE_JSON_H
#define DAECC_SERVICE_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dae {
namespace service {

/// One parsed JSON value. A plain tagged struct rather than a variant:
/// the protocol's values are small and short-lived.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;

  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj; ///< Insertion order.

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue *get(const std::string &Key) const {
    if (K != Kind::Object)
      return nullptr;
    for (const auto &[Name, V] : Obj)
      if (Name == Key)
        return &V;
    return nullptr;
  }
};

/// Deepest nesting of objects and arrays parseJson accepts. Protocol
/// requests nest at most 3 deep (options.rep_args); the cap bounds the
/// parser's recursion so hostile input cannot overflow the stack.
constexpr unsigned MaxJsonDepth = 64;

/// Strict parse of one complete JSON document. Returns false and fills
/// \p Err (with a character position) on any syntax error, including
/// non-whitespace trailing content and nesting deeper than MaxJsonDepth.
bool parseJson(const std::string &Text, JsonValue &Out, std::string &Err);

/// String escaped for embedding in a JSON string literal (quotes not
/// included). Control characters become \uXXXX.
std::string jsonEscape(const std::string &S);

/// Bit-exact double serialization: C99 hexfloat via printf %a.
std::string hexDouble(double D);

/// Parses a hexDouble()-formatted (or any strtod-accepted) string back to
/// the identical double. Returns false on malformed input.
bool parseHexDouble(const std::string &S, double &Out);

} // namespace service
} // namespace dae

#endif // DAECC_SERVICE_JSON_H
