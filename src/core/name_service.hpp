// NameService: symbolic addresses for persistent processes (paper §5).
//
// "Processes can be accessed using a symbolic object address", e.g.
// "oopp://data/set/PageDevice/34".  The name service maps such URIs to a
// record saying where the process lives (if active) or where its
// passivated image is stored (if not).  It is itself an ordinary remotable
// — and persistent — object, registered through the same class_def
// mechanism as user classes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rpc/binding.hpp"
#include "serial/archive.hpp"

namespace oopp {

struct PersistRecord {
  std::string class_name;
  /// Machine hosting the live process; -1 when passivated.
  std::int32_t live_machine = -1;
  /// Object id of the live process (meaningful when live_machine >= 0).
  std::uint64_t object_id = 0;
  /// Machine the process last lived on — default activation target.
  std::int32_t home_machine = 0;
  /// Path of the latest passivated image.
  std::string state_file;

  bool operator==(const PersistRecord&) const = default;
};

template <class Ar>
void oopp_serialize(Ar& ar, PersistRecord& r) {
  ar(r.class_name, r.live_machine, r.object_id, r.home_machine, r.state_file);
}

class NameService {
 public:
  NameService() = default;

  explicit NameService(serial::IArchive& ia) { ia(map_); }
  void oopp_save(serial::OArchive& oa) const { oa(map_); }

  // -- canonical record API ---------------------------------------------------
  // bind/resolve/unbind name the directory operations; Cluster's
  // persist()/activate()/lookup() facade is the intended entry point —
  // user code should not need to touch records directly.

  void bind(const std::string& uri, const PersistRecord& rec) {
    map_[uri] = rec;
  }
  std::optional<PersistRecord> resolve(const std::string& uri) const {
    auto it = map_.find(uri);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  bool unbind(const std::string& uri) { return map_.erase(uri) > 0; }

  /// Mark every record passive.  Used when a registry image from a
  /// previous cluster incarnation is re-activated: the live processes it
  /// refers to died with that cluster, but their checkpoints survive.
  std::uint64_t mark_all_passive() {
    std::uint64_t changed = 0;
    for (auto& [uri, rec] : map_) {
      if (rec.live_machine >= 0) {
        rec.live_machine = -1;
        rec.object_id = 0;
        ++changed;
      }
    }
    return changed;
  }
  std::vector<std::string> list() const {
    std::vector<std::string> out;
    out.reserve(map_.size());
    for (const auto& [uri, _] : map_) out.push_back(uri);
    return out;
  }
  std::uint64_t size() const { return map_.size(); }

 private:
  std::map<std::string, PersistRecord> map_;
};

}  // namespace oopp

template <>
struct oopp::rpc::class_def<oopp::NameService> {
  static std::string name() { return "oopp.NameService"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    using NS = oopp::NameService;
    b.template method<&NS::bind>("bind");
    b.template method<&NS::resolve>("resolve");
    b.template method<&NS::unbind>("unbind");
    b.template method<&NS::mark_all_passive>("mark_all_passive");
    b.template method<&NS::list>("list");
    b.template method<&NS::size>("size");
    b.persistent();
  }
};
