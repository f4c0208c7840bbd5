#include "minmach/svc/replay.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>

#include "minmach/obs/json.hpp"

namespace minmach::svc {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("svc::parse_jsonl: line " + std::to_string(line) +
                              ": " + what);
}

// An integer field of type T: the number's literal must be a plain run of
// digits (a leading '-' only where T is signed) whose value fits T, so a
// fraction, an exponent or an out-of-range value is refused, not truncated.
template <typename T>
T int_field(const obs::JsonValue& object, const char* name, std::size_t line) {
  const obs::JsonValue* field = object.find(name);
  if (field == nullptr || !field->is_number())
    fail(line, std::string("missing integer field \"") + name + "\"");
  const std::string& text = field->literal;
  T value{};
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size())
    fail(line, std::string("bad integer in \"") + name + "\": " + text);
  return value;
}

Rat rat_field(const obs::JsonValue& object, const char* name,
              std::size_t line) {
  const obs::JsonValue* field = object.find(name);
  if (field == nullptr || !field->is_string())
    fail(line, std::string("missing rational field \"") + name + "\"");
  try {
    return Rat::from_string(field->text);
  } catch (const std::exception&) {
    fail(line, std::string("bad rational in \"") + name + "\": " + field->text);
  }
}

}  // namespace

std::vector<Event> parse_jsonl(std::string_view text) {
  std::vector<Event> events;
  std::size_t line_number = 0;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;

    obs::JsonValue object;
    try {
      object = obs::parse_json(line);
    } catch (const std::exception& error) {
      fail(line_number, error.what());
    }
    if (!object.is_object()) fail(line_number, "event is not a JSON object");
    const obs::JsonValue* tag = object.find("e");
    if (tag == nullptr || !tag->is_string())
      fail(line_number, "missing event tag \"e\"");

    Event event;
    event.session = int_field<std::uint64_t>(object, "s", line_number);
    if (tag->text == "release") {
      event.kind = Event::Kind::kRelease;
      event.job = int_field<std::int64_t>(object, "j", line_number);
      event.payload.release = rat_field(object, "r", line_number);
      event.payload.deadline = rat_field(object, "d", line_number);
      event.payload.processing = rat_field(object, "p", line_number);
    } else if (tag->text == "complete") {
      event.kind = Event::Kind::kComplete;
      event.job = int_field<std::int64_t>(object, "j", line_number);
    } else if (tag->text == "query") {
      event.kind = Event::Kind::kQuery;
    } else {
      fail(line_number, "unknown event tag \"" + tag->text + "\"");
    }
    events.push_back(std::move(event));
  }
  return events;
}

std::string to_jsonl(const std::vector<Event>& events) {
  std::ostringstream os;
  for (const Event& event : events) {
    switch (event.kind) {
      case Event::Kind::kRelease:
        os << "{\"e\":\"release\",\"s\":" << event.session
           << ",\"j\":" << event.job << ",\"r\":\""
           << event.payload.release.to_string() << "\",\"d\":\""
           << event.payload.deadline.to_string() << "\",\"p\":\""
           << event.payload.processing.to_string() << "\"}\n";
        break;
      case Event::Kind::kComplete:
        os << "{\"e\":\"complete\",\"s\":" << event.session
           << ",\"j\":" << event.job << "}\n";
        break;
      case Event::Kind::kQuery:
        os << "{\"e\":\"query\",\"s\":" << event.session << "}\n";
        break;
    }
  }
  return os.str();
}

std::string replay_events(const std::vector<Event>& events,
                          const EngineOptions& options) {
  SessionEngine engine(options);
  engine.ingest(events);
  return engine.report_json();
}

}  // namespace minmach::svc
