#include "vfs/overlay.h"

#include "vfs/path.h"

namespace hpcc::vfs {

namespace {
constexpr int kMaxSymlinkDepth = 40;

/// Strict ancestors of a normalized path, nearest first
/// ("/a/b/c" -> {"/a/b", "/a"}); "/" is never returned.
std::vector<std::string> strict_ancestors(const std::string& path) {
  std::vector<std::string> out;
  std::string cur = parent(path);
  while (cur != "/") {
    out.push_back(cur);
    cur = parent(cur);
  }
  return out;
}
}  // namespace

OverlayFs::OverlayFs(std::vector<OverlayLower> lowers)
    : levels_(std::move(lowers)) {
  levels_.emplace_back();  // fresh writable upper
}

std::optional<OverlayFs::Found> OverlayFs::lookup_raw(
    const std::string& path) const {
  for (std::size_t i = levels_.size(); i-- > 0;) {
    const OverlayLower& level = levels_[i];
    // A whiteout at the exact path hides it from this level downward.
    if (level.whiteouts.contains(path)) return std::nullopt;
    const auto st = level.fs.lstat(path);
    if (st.ok()) return Found{i, st.value()};
    // Decide whether this level cuts lower levels off for `path`.
    for (const auto& anc : strict_ancestors(path)) {
      if (level.whiteouts.contains(anc)) return std::nullopt;
      if (level.opaque_dirs.contains(anc)) return std::nullopt;
      const auto ast = level.fs.lstat(anc);
      if (ast.ok() && ast.value().type != FileType::kDir) return std::nullopt;
    }
  }
  return std::nullopt;
}

Result<OverlayFs::Found> OverlayFs::resolve(std::string_view path,
                                            bool follow_last,
                                            std::string* canonical) const {
  std::string cur = normalize(path);
  int depth = 0;
  while (true) {
    if (cur == "/") {
      if (canonical) canonical->assign(1, '/');
      Stat s;
      s.type = FileType::kDir;
      s.meta = FileMeta{0, 0, 0755, 0};
      return Found{levels_.size() - 1, s};
    }
    const auto comps = components(cur);
    std::string walked = "/";
    bool restarted = false;
    std::optional<Found> found;
    for (std::size_t i = 0; i < comps.size(); ++i) {
      const std::string next_path = join(walked, comps[i]);
      const auto f = lookup_raw(next_path);
      if (!f) return err_not_found("no such path: " + next_path);
      const bool is_last = (i + 1 == comps.size());
      if (f->stat.type == FileType::kSymlink && (!is_last || follow_last)) {
        if (++depth > kMaxSymlinkDepth)
          return err_invalid("too many levels of symbolic links: " + next_path);
        HPCC_TRY(const std::string target,
                 levels_[f->level].fs.read_link(next_path));
        std::string rest;
        for (std::size_t j = i + 1; j < comps.size(); ++j) {
          rest += '/';
          rest += comps[j];
        }
        cur = target.starts_with('/') ? normalize(target + rest)
                                      : normalize(walked + "/" + target + rest);
        restarted = true;
        break;
      }
      if (!is_last && f->stat.type != FileType::kDir)
        return err_invalid("not a directory: " + next_path);
      walked = next_path;
      found = f;
    }
    if (restarted) continue;
    if (canonical) *canonical = walked;
    return *found;
  }
}

Result<Stat> OverlayFs::stat(std::string_view path) const {
  HPCC_TRY(const Found f, resolve(path, /*follow_last=*/true));
  return f.stat;
}

bool OverlayFs::exists(std::string_view path) const {
  return resolve(path, true).ok();
}

Result<Bytes> OverlayFs::read_file(std::string_view path) const {
  std::string canonical;
  HPCC_TRY(const Found f, resolve(path, /*follow_last=*/true, &canonical));
  if (f.stat.type != FileType::kFile)
    return err_invalid("not a regular file: " + canonical);
  return levels_[f.level].fs.read_file(canonical);
}

Result<std::string> OverlayFs::read_file_text(std::string_view path) const {
  HPCC_TRY(Bytes data, read_file(path));
  return hpcc::to_string(BytesView(data));
}

Result<std::vector<std::string>> OverlayFs::list_dir(
    std::string_view path) const {
  std::string canonical;
  HPCC_TRY(const Found f, resolve(path, /*follow_last=*/true, &canonical));
  if (f.stat.type != FileType::kDir)
    return err_invalid("not a directory: " + canonical);

  std::set<std::string> names;
  std::set<std::string> hidden;
  for (std::size_t i = levels_.size(); i-- > 0;) {
    const OverlayLower& level = levels_[i];
    const auto listed = level.fs.list_dir(canonical);
    if (listed.ok()) {
      for (const auto& name : listed.value()) {
        if (!hidden.contains(name) &&
            !level.whiteouts.contains(join(canonical, name))) {
          names.insert(name);
        }
      }
    }
    // Children whiteouted at this level stay hidden for lower levels.
    for (const auto& w : level.whiteouts) {
      if (parent(w) == canonical) hidden.insert(basename(w));
    }
    // This level cuts off lower levels entirely?
    if (level.whiteouts.contains(canonical)) break;
    if (level.opaque_dirs.contains(canonical)) break;
    const auto st = level.fs.lstat(canonical);
    if (st.ok() && st.value().type != FileType::kDir) break;
  }
  return std::vector<std::string>(names.begin(), names.end());
}

Result<Unit> OverlayFs::ensure_upper_dirs(const std::string& path) {
  auto ancestors = strict_ancestors(path);
  // Create top-down.
  for (auto it = ancestors.rbegin(); it != ancestors.rend(); ++it) {
    OverlayLower& up = upper_mut();
    if (up.fs.lstat(*it).ok()) continue;
    const auto f = lookup_raw(*it);
    if (!f) return err_not_found("no such directory: " + *it);
    if (f->stat.type != FileType::kDir)
      return err_invalid("not a directory: " + *it);
    HPCC_TRY_UNIT(up.fs.mkdir(*it, f->stat.meta, /*parents=*/false));
  }
  return ok_unit();
}

Result<Unit> OverlayFs::write_file(std::string_view path, Bytes data,
                                   FileMeta meta) {
  const std::string norm = normalize(path);
  // If the target resolves through symlinks, write to the canonical path.
  std::string target = norm;
  if (auto r = resolve(norm, /*follow_last=*/true, &target); !r.ok()) {
    target = norm;  // new file
  } else if (r.value().stat.type == FileType::kDir) {
    return err_invalid("is a directory: " + target);
  }
  HPCC_TRY_UNIT(ensure_upper_dirs(target));
  OverlayLower& up = upper_mut();
  up.whiteouts.erase(target);
  return up.fs.write_file(target, std::move(data), meta);
}

Result<Unit> OverlayFs::write_file(std::string_view path,
                                   std::string_view text, FileMeta meta) {
  return write_file(path, to_bytes(text), meta);
}

Result<Unit> OverlayFs::copy_up(std::string_view path) {
  std::string canonical;
  HPCC_TRY(const Found f, resolve(path, /*follow_last=*/true, &canonical));
  if (f.level == levels_.size() - 1) return ok_unit();  // already upper
  if (f.stat.type != FileType::kFile)
    return err_invalid("copy-up of non-file: " + canonical);
  HPCC_TRY(Bytes data, levels_[f.level].fs.read_file(canonical));
  HPCC_TRY_UNIT(ensure_upper_dirs(canonical));
  ++copy_ups_;
  copy_up_bytes_ += data.size();
  return upper_mut().fs.write_file(canonical, std::move(data), f.stat.meta);
}

Result<Unit> OverlayFs::append_file(std::string_view path, BytesView data) {
  HPCC_TRY_UNIT(copy_up(path));
  std::string canonical;
  HPCC_TRY(const Found f, resolve(path, /*follow_last=*/true, &canonical));
  (void)f;
  return upper_mut().fs.append_file(canonical, data);
}

Result<Unit> OverlayFs::mkdir(std::string_view path, FileMeta meta,
                              bool parents) {
  const std::string norm = normalize(path);
  if (norm == "/") return ok_unit();
  if (exists(norm)) {
    HPCC_TRY(const Stat st, stat(norm));
    if (st.type == FileType::kDir && parents) return ok_unit();
    return err_exists("exists: " + norm);
  }
  if (parents) {
    std::string built = "/";
    for (const auto& comp : components(norm)) {
      built = join(built, comp);
      if (exists(built)) continue;
      HPCC_TRY_UNIT(mkdir(built, meta, /*parents=*/false));
    }
    return ok_unit();
  }
  HPCC_TRY_UNIT(ensure_upper_dirs(norm));
  OverlayLower& up = upper_mut();
  const bool was_whiteout = up.whiteouts.erase(norm) > 0;
  HPCC_TRY_UNIT(up.fs.mkdir(norm, meta, /*parents=*/false));
  // Recreating a deleted dir must not expose old lower content.
  if (was_whiteout) up.opaque_dirs.insert(norm);
  return ok_unit();
}

Result<Unit> OverlayFs::symlink(std::string_view target,
                                std::string_view linkpath) {
  const std::string norm = normalize(linkpath);
  if (lookup_raw(norm)) return err_exists("exists: " + norm);
  HPCC_TRY_UNIT(ensure_upper_dirs(norm));
  OverlayLower& up = upper_mut();
  up.whiteouts.erase(norm);
  return up.fs.symlink(target, norm);
}

Result<Unit> OverlayFs::unlink(std::string_view path) {
  const std::string norm = normalize(path);
  const auto f = lookup_raw(norm);
  if (!f) return err_not_found("no such path: " + norm);
  if (f->stat.type == FileType::kDir)
    return err_invalid("is a directory: " + norm);
  OverlayLower& up = upper_mut();
  if (f->level == levels_.size() - 1) {
    HPCC_TRY_UNIT(up.fs.unlink(norm));
    // Lower may still have it: whiteout if so.
    bool in_lower = false;
    for (std::size_t i = 0; i + 1 < levels_.size(); ++i)
      if (levels_[i].fs.lstat(norm).ok()) in_lower = true;
    if (in_lower) up.whiteouts.insert(norm);
    return ok_unit();
  }
  HPCC_TRY_UNIT(ensure_upper_dirs(norm));
  up.whiteouts.insert(norm);
  return ok_unit();
}

Result<Unit> OverlayFs::remove_all(std::string_view path) {
  const std::string norm = normalize(path);
  const auto f = lookup_raw(norm);
  if (!f) return ok_unit();
  OverlayLower& up = upper_mut();
  if (up.fs.lstat(norm).ok()) {
    HPCC_TRY(auto removed, up.fs.remove_all(norm));
    (void)removed;
  }
  bool in_lower = false;
  for (std::size_t i = 0; i + 1 < levels_.size(); ++i)
    if (levels_[i].fs.lstat(norm).ok()) in_lower = true;
  if (in_lower) {
    HPCC_TRY_UNIT(ensure_upper_dirs(norm));
    up.whiteouts.insert(norm);
  }
  return ok_unit();
}

namespace {
void flatten_dir(const OverlayFs& ov, const std::string& dir, MemFs& out) {
  const auto names = ov.list_dir(dir);
  if (!names.ok()) return;
  for (const auto& name : names.value()) {
    const std::string p = join(dir, name);
    const auto st = ov.stat(p);
    if (!st.ok()) continue;  // dangling symlink in merged view
    switch (st.value().type) {
      case FileType::kDir:
        (void)out.mkdir(p, st.value().meta, /*parents=*/true);
        flatten_dir(ov, p, out);
        break;
      case FileType::kFile: {
        const auto data = ov.read_file(p);
        if (data.ok()) (void)out.write_file(p, data.value(), st.value().meta);
        break;
      }
      case FileType::kSymlink:
        break;  // stat() follows symlinks; unreachable
    }
  }
}
}  // namespace

MemFs OverlayFs::flatten() const {
  MemFs out;
  flatten_dir(*this, "/", out);
  return out;
}

}  // namespace hpcc::vfs
