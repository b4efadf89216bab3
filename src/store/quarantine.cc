#include "store/quarantine.h"

#include <utility>

#include "store/io.h"
#include "store/json.h"

namespace enld {
namespace store {

Status WriteQuarantineJson(const QuarantineLog& log, const std::string& path) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("enld-quarantine-v1"));
  doc.Set("total", JsonValue::Number(static_cast<double>(log.total())));
  doc.Set("recorded",
          JsonValue::Number(static_cast<double>(log.records().size())));
  doc.Set("capacity",
          JsonValue::Number(static_cast<double>(log.capacity())));
  doc.Set("truncated", JsonValue::Bool(log.truncated()));

  JsonValue records = JsonValue::Array();
  for (const QuarantineRecord& record : log.records()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("request",
              JsonValue::Number(static_cast<double>(record.request)));
    entry.Set("request_id",
              JsonValue::Number(static_cast<double>(record.request_id)));
    entry.Set("row", JsonValue::Number(static_cast<double>(record.row)));
    entry.Set("sample_id",
              JsonValue::Number(static_cast<double>(record.sample_id)));
    entry.Set("reason",
              JsonValue::String(RejectionReasonName(record.reason)));
    entry.Set("column",
              JsonValue::Number(static_cast<double>(record.column)));
    // NaN is not representable in JSON; the non-finite offender values are
    // exactly what lands here, so serialize the value as a string.
    entry.Set("value", JsonValue::String(std::to_string(record.value)));
    entry.Set("detail", JsonValue::String(record.detail));
    records.items().push_back(std::move(entry));
  }
  doc.Set("records", std::move(records));
  return WriteFileDurable(path, doc.ToString());
}

namespace {

/// Reads a required non-negative numeric field into `out`.
Status GetUint(const JsonValue& object, const char* key, uint64_t* out) {
  const JsonValue* field = object.Find(key);
  if (field == nullptr || !field->is_number() || field->AsNumber() < 0) {
    return Status::InvalidArgument(std::string("quarantine field '") + key +
                                   "' is missing or not a non-negative "
                                   "number");
  }
  *out = static_cast<uint64_t>(field->AsNumber());
  return Status::OK();
}

}  // namespace

StatusOr<QuarantineFile> ReadQuarantineJson(const std::string& path) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  StatusOr<JsonValue> parsed = JsonValue::Parse(text.value());
  if (!parsed.ok()) return parsed.status();
  const JsonValue& doc = parsed.value();
  if (!doc.is_object()) {
    return Status::InvalidArgument("quarantine log is not a JSON object");
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != "enld-quarantine-v1") {
    return Status::InvalidArgument(
        "missing or unsupported quarantine log schema");
  }

  QuarantineFile file;
  ENLD_RETURN_IF_ERROR(GetUint(doc, "total", &file.total));
  ENLD_RETURN_IF_ERROR(GetUint(doc, "capacity", &file.capacity));
  const JsonValue* records = doc.Find("records");
  if (records == nullptr || !records->is_array()) {
    return Status::InvalidArgument("quarantine log has no 'records' array");
  }
  for (const JsonValue& item : records->items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("malformed quarantine record");
    }
    QuarantineFileRecord record;
    ENLD_RETURN_IF_ERROR(GetUint(item, "request", &record.request));
    ENLD_RETURN_IF_ERROR(GetUint(item, "row", &record.row));
    ENLD_RETURN_IF_ERROR(GetUint(item, "sample_id", &record.sample_id));
    const JsonValue* reason = item.Find("reason");
    if (reason == nullptr || !reason->is_string() ||
        reason->AsString().empty()) {
      return Status::InvalidArgument(
          "quarantine record has no 'reason' string");
    }
    record.reason = reason->AsString();
    // request_id, column, value and detail are optional: files from
    // builds before each field existed still replay.
    const JsonValue* request_id = item.Find("request_id");
    if (request_id != nullptr && request_id->is_number() &&
        request_id->AsNumber() >= 0) {
      record.request_id = static_cast<uint64_t>(request_id->AsNumber());
    }
    const JsonValue* column = item.Find("column");
    if (column != nullptr && column->is_number() && column->AsNumber() >= 0) {
      record.column = static_cast<uint64_t>(column->AsNumber());
    }
    const JsonValue* value = item.Find("value");
    if (value != nullptr && value->is_string()) {
      record.value = value->AsString();
    }
    const JsonValue* detail = item.Find("detail");
    if (detail != nullptr && detail->is_string()) {
      record.detail = detail->AsString();
    }
    file.records.push_back(std::move(record));
  }
  file.truncated = file.total > file.records.size();
  return file;
}

}  // namespace store
}  // namespace enld
