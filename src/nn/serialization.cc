#include "nn/serialization.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace enld {

namespace {

/// A host-order tag follows the magic, so a reader on a machine with
/// different endianness sees the byte-swapped value and rejects the file
/// instead of loading garbage weights.
constexpr char kMagic[8] = {'E', 'N', 'L', 'D', 'M', 'D', 'L', '2'};
constexpr uint32_t kByteOrderTag = 0x01020304u;

/// RAII file handle.
class File {
 public:
  File(const std::string& path, const char* mode)
      : handle_(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (handle_ != nullptr) std::fclose(handle_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  FILE* get() const { return handle_; }
  bool ok() const { return handle_ != nullptr; }

 private:
  FILE* handle_;
};

Status ValidateDimsAndWeights(const std::vector<size_t>& dims,
                              size_t weight_count) {
  if (dims.size() < 3 || dims.size() > 64) {
    return Status::InvalidArgument("corrupt layer-dimension header");
  }
  uint64_t expected = 0;
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    if (dims[i] == 0 || dims[i] > (1u << 24)) {
      return Status::InvalidArgument("corrupt layer dimension");
    }
    expected += dims[i] * dims[i + 1] + dims[i + 1];
  }
  if (dims.back() == 0 || dims.back() > (1u << 24)) {
    return Status::InvalidArgument("corrupt layer dimension");
  }
  if (expected != weight_count) {
    return Status::InvalidArgument("weight count does not match layers");
  }
  return Status::OK();
}

}  // namespace

Status SaveModelFile(const ModelFile& file, const std::string& path) {
  File out(path, "wb");
  if (!out.ok()) {
    return Status::NotFound("cannot open for writing: " + path);
  }

  if (std::fwrite(kMagic, 1, sizeof(kMagic), out.get()) != sizeof(kMagic)) {
    return Status::Internal("short write of header");
  }
  std::fwrite(&kByteOrderTag, sizeof(kByteOrderTag), 1, out.get());
  const uint64_t num_dims = file.dims.size();
  std::fwrite(&num_dims, sizeof(num_dims), 1, out.get());
  for (size_t d : file.dims) {
    const uint64_t v = d;
    std::fwrite(&v, sizeof(v), 1, out.get());
  }
  const uint64_t count = file.weights.size();
  std::fwrite(&count, sizeof(count), 1, out.get());
  if (std::fwrite(file.weights.data(), sizeof(float), file.weights.size(),
                  out.get()) != file.weights.size()) {
    return Status::Internal("short write of weights");
  }
  return Status::OK();
}

Status SaveModel(const MlpModel& model, const std::string& path) {
  ModelFile file;
  file.dims = model.layer_dims();
  file.weights = model.GetWeights();
  return SaveModelFile(file, path);
}

StatusOr<ModelFile> LoadModelFile(const std::string& path) {
  File file(path, "rb");
  if (!file.ok()) {
    return Status::NotFound("cannot open for reading: " + path);
  }

  char magic[sizeof(kMagic)];
  if (std::fread(magic, 1, sizeof(magic), file.get()) != sizeof(magic)) {
    return Status::InvalidArgument("not an ENLD model file: " + path);
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an ENLD model file: " + path);
  }
  uint32_t tag = 0;
  if (std::fread(&tag, sizeof(tag), 1, file.get()) != 1) {
    return Status::InvalidArgument("truncated byte-order tag");
  }
  if (tag != kByteOrderTag) {
    return Status::InvalidArgument(
        "model file byte order does not match this machine "
        "(written on a foreign-endian host?)");
  }

  uint64_t num_dims = 0;
  if (std::fread(&num_dims, sizeof(num_dims), 1, file.get()) != 1 ||
      num_dims < 3 || num_dims > 64) {
    return Status::InvalidArgument("corrupt layer-dimension header");
  }
  ModelFile out;
  out.dims.resize(num_dims);
  for (auto& d : out.dims) {
    uint64_t v = 0;
    if (std::fread(&v, sizeof(v), 1, file.get()) != 1 || v == 0 ||
        v > (1u << 24)) {
      return Status::InvalidArgument("corrupt layer dimension");
    }
    d = static_cast<size_t>(v);
  }
  uint64_t count = 0;
  if (std::fread(&count, sizeof(count), 1, file.get()) != 1) {
    return Status::InvalidArgument("missing weight count");
  }
  ENLD_RETURN_IF_ERROR(ValidateDimsAndWeights(out.dims, count));
  out.weights.resize(count);
  if (std::fread(out.weights.data(), sizeof(float), out.weights.size(),
                 file.get()) != out.weights.size()) {
    return Status::InvalidArgument("truncated weights");
  }
  return out;
}

StatusOr<std::unique_ptr<MlpModel>> ModelFromFile(const ModelFile& file) {
  ENLD_RETURN_IF_ERROR(
      ValidateDimsAndWeights(file.dims, file.weights.size()));
  Rng rng(0);  // Immediately overwritten by SetWeights.
  auto model = std::make_unique<MlpModel>(file.dims, rng);
  model->SetWeights(file.weights);
  return model;
}

StatusOr<std::unique_ptr<MlpModel>> LoadModel(const std::string& path) {
  StatusOr<ModelFile> file = LoadModelFile(path);
  if (!file.ok()) return file.status();
  return ModelFromFile(file.value());
}

}  // namespace enld
