#include "image/build.h"

#include <algorithm>
#include <cstring>

#include "util/strings.h"
#include "vfs/path.h"

namespace hpcc::image {

namespace {

/// Splits a command line into whitespace-separated words.
std::vector<std::string> words(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == ' ' || c == '\t') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

std::uint64_t parse_u64(const std::string& s, std::uint64_t fallback) {
  std::uint64_t v = 0;
  bool any = false;
  for (char c : s) {
    if (c < '0' || c > '9') return fallback;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    any = true;
  }
  return any ? v : fallback;
}

}  // namespace

Result<BuildSpec> BuildSpec::parse_containerfile(std::string_view text) {
  BuildSpec spec;
  spec.format = SpecFormat::kContainerfile;
  spec.raw_text = std::string(text);
  for (const auto& raw_line : strings::split(text, '\n')) {
    const std::string_view line = strings::trim(raw_line);
    if (line.empty() || line.starts_with('#')) continue;
    const auto space = line.find(' ');
    const std::string directive =
        strings::to_lower(space == std::string_view::npos ? line
                                                          : line.substr(0, space));
    const std::string_view rest =
        space == std::string_view::npos ? std::string_view{}
                                        : strings::trim(line.substr(space + 1));
    if (directive == "from") {
      if (!spec.base.empty())
        return err_invalid("multi-stage builds are not supported");
      spec.base = std::string(rest);
    } else if (directive == "run" || directive == "copy" ||
               directive == "add") {
      spec.run.emplace_back(rest);
    } else if (directive == "env" || directive == "label") {
      const std::string r(rest);
      const auto eq = r.find('=');
      const auto sp = r.find(' ');
      std::string k, v;
      if (eq != std::string::npos && (sp == std::string::npos || eq < sp)) {
        k = r.substr(0, eq);
        v = r.substr(eq + 1);
      } else if (sp != std::string::npos) {
        k = r.substr(0, sp);
        v = std::string(strings::trim(r.substr(sp + 1)));
      } else {
        return err_invalid("malformed " + directive + " line: " + r);
      }
      (directive == "env" ? spec.env : spec.labels)[k] = v;
    } else if (directive == "entrypoint" || directive == "cmd" ||
               directive == "workdir" || directive == "user" ||
               directive == "expose") {
      // Accepted and recorded as a no-op command (state change only in
      // config, which the builder applies from env/labels).
      spec.run.emplace_back("meta " + std::string(line));
    } else {
      return err_invalid("unsupported Containerfile directive: " + directive);
    }
  }
  if (spec.base.empty() && spec.run.empty())
    return err_invalid("empty Containerfile");
  return spec;
}

Result<BuildSpec> BuildSpec::parse_singularity_def(std::string_view text) {
  BuildSpec spec;
  spec.format = SpecFormat::kSingularityDef;
  spec.raw_text = std::string(text);
  std::string section;  // "", "post", "environment", "labels"
  for (const auto& raw_line : strings::split(text, '\n')) {
    const std::string_view line = strings::trim(raw_line);
    if (line.empty() || line.starts_with('#')) continue;
    if (line.starts_with('%')) {
      section = strings::to_lower(line.substr(1));
      continue;
    }
    if (section.empty()) {
      // Header: "Bootstrap: docker" / "From: alpine:3.18"
      const auto colon = line.find(':');
      if (colon == std::string_view::npos)
        return err_invalid("malformed def header line: " + std::string(line));
      const std::string key = strings::to_lower(strings::trim(line.substr(0, colon)));
      const std::string_view value = strings::trim(line.substr(colon + 1));
      if (key == "from") spec.base = std::string(value);
      // "bootstrap" and friends accepted silently.
    } else if (section == "post") {
      spec.run.emplace_back(line);
    } else if (section == "environment") {
      const std::string r(line);
      const auto eq = r.find('=');
      if (eq == std::string::npos)
        return err_invalid("malformed %environment line: " + r);
      std::string k = r.substr(0, eq);
      if (strings::starts_with(k, "export ")) k = k.substr(7);
      spec.env[std::string(strings::trim(k))] =
          std::string(strings::trim(r.substr(eq + 1)));
    } else if (section == "labels") {
      const auto ws = words(std::string(line));
      if (ws.size() >= 2) {
        std::string value = ws[1];
        for (std::size_t i = 2; i < ws.size(); ++i) value += " " + ws[i];
        spec.labels[ws[0]] = value;
      }
    }
    // Other sections (%files, %runscript, ...) are tolerated but unused.
  }
  if (spec.base.empty())
    return err_invalid("Singularity definition needs a From: header");
  return spec;
}

Result<Unit> ImageBuilder::run_command(const std::string& command,
                                       vfs::MemFs& fs, ImageConfig& config,
                                       int step_index) {
  const auto w = words(command);
  if (w.empty()) return ok_unit();
  const std::string& verb = w[0];

  if (verb == "install") {
    if (w.size() < 2) return err_invalid("install needs a package name");
    const std::string& pkg = w[1];
    const std::uint64_t files = w.size() > 2 ? parse_u64(w[2], 16) : 16;
    const std::uint64_t bytes = w.size() > 3 ? parse_u64(w[3], 64 * 1024) : 64 * 1024;
    const std::string root = "/opt/" + pkg;
    HPCC_TRY_UNIT(fs.mkdir(root + "/bin", {0, 0, 0755, 0}, true));
    HPCC_TRY_UNIT(fs.mkdir(root + "/share", {0, 0, 0755, 0}, true));
    HPCC_TRY_UNIT(fs.write_file(root + "/bin/" + pkg,
                                synthetic_file_content(rng_, bytes),
                                {0, 0, 0755, 0}));
    for (std::uint64_t i = 0; i + 1 < files; ++i) {
      HPCC_TRY_UNIT(fs.write_file(
          root + "/share/data" + std::to_string(i) + ".bin",
          synthetic_file_content(rng_, bytes), {0, 0, 0644, 0}));
    }
    return ok_unit();
  }
  if (verb == "write") {
    if (w.size() < 2) return err_invalid("write needs a path");
    std::string text;
    for (std::size_t i = 2; i < w.size(); ++i) {
      if (i > 2) text += ' ';
      text += w[i];
    }
    if (!fs.exists(vfs::parent(w[1]))) {
      HPCC_TRY_UNIT(fs.mkdir(vfs::parent(w[1]), {0, 0, 0755, 0}, true));
    }
    return fs.write_file(w[1], text);
  }
  if (verb == "remove") {
    if (w.size() < 2) return err_invalid("remove needs a path");
    HPCC_TRY(auto removed, fs.remove_all(w[1]));
    (void)removed;
    return ok_unit();
  }
  if (verb == "lib") {
    if (w.size() < 4) return err_invalid("lib needs <name> <abi> <glibc>");
    runtime::Library lib;
    lib.name = w[1];
    lib.abi = runtime::Version::parse(w[2]);
    lib.requires_glibc = runtime::Version::parse(w[3]);
    config.abi.libraries.push_back(lib);
    if (!fs.exists("/usr/lib")) {
      HPCC_TRY_UNIT(fs.mkdir("/usr/lib", {0, 0, 0755, 0}, true));
    }
    return fs.write_file("/usr/lib/" + w[1] + ".so." + w[2],
                         synthetic_file_content(rng_, 512 * 1024),
                         {0, 0, 0755, 0});
  }
  if (verb == "glibc") {
    if (w.size() < 2) return err_invalid("glibc needs a version");
    config.abi.glibc = runtime::Version::parse(w[1]);
    if (!fs.exists("/usr/lib")) {
      HPCC_TRY_UNIT(fs.mkdir("/usr/lib", {0, 0, 0755, 0}, true));
    }
    return fs.write_file("/usr/lib/libc.so.6",
                         synthetic_file_content(rng_, 2 * 1024 * 1024),
                         {0, 0, 0755, 0});
  }
  if (verb == "env") {
    if (w.size() < 2) return err_invalid("env needs KEY=value");
    const auto eq = w[1].find('=');
    if (eq == std::string::npos) return err_invalid("env needs KEY=value");
    config.env[w[1].substr(0, eq)] = w[1].substr(eq + 1);
    return ok_unit();
  }
  // Unknown command: still a state change, recorded in the build log.
  if (!fs.exists("/var/log")) {
    HPCC_TRY_UNIT(fs.mkdir("/var/log", {0, 0, 0755, 0}, true));
  }
  const std::string log_path = "/var/log/build." + std::to_string(step_index);
  if (fs.exists(log_path)) return fs.append_file(log_path, to_bytes("\n" + command));
  return fs.write_file(log_path, command);
}

Result<BuiltImage> ImageBuilder::build(const BuildSpec& spec,
                                       const vfs::MemFs& base,
                                       ImageConfig base_config) {
  BuiltImage out;
  out.config = std::move(base_config);
  for (const auto& [k, v] : spec.env) out.config.env[k] = v;
  for (const auto& [k, v] : spec.labels) out.config.labels[k] = v;

  vfs::MemFs current = base.clone();
  int step = 0;
  if (spec.format == SpecFormat::kContainerfile) {
    // One layer per command: diff against the previous state.
    for (const auto& cmd : spec.run) {
      vfs::MemFs before = current.clone();
      HPCC_TRY_UNIT(run_command(cmd, current, out.config, step)
                        .map([](Unit u) { return u; }));
      vfs::Layer layer = vfs::Layer::diff(before, current);
      if (!layer.empty()) out.layers.push_back(std::move(layer));
      ++step;
    }
  } else {
    // Flat build: all commands into one tree, one layer.
    vfs::MemFs before = current.clone();
    for (const auto& cmd : spec.run) {
      HPCC_TRY_UNIT(run_command(cmd, current, out.config, step++)
                        .map([](Unit u) { return u; }));
    }
    vfs::Layer layer = vfs::Layer::diff(before, current);
    if (!layer.empty()) out.layers.push_back(std::move(layer));
  }
  out.rootfs = std::move(current);
  return out;
}

Bytes synthetic_file_content(Rng& rng, std::uint64_t size) {
  // Mixed compressible content: repeated vocabulary with random
  // interjections — compresses roughly like real binaries/text.
  static constexpr std::string_view kVocab =
      "symbol_table section .text .data relocation glibc malloc printf "
      "openmpi ucx libfabric cuda kernel module parameter dataset ";
  Bytes out(size);
  std::size_t pos = 0;
  while (pos < size) {
    // One copy per vocabulary run, clipped to the bytes left; the draws
    // stay in their order (the golden-digest test pins both).
    const std::size_t start = rng.next_below(kVocab.size());
    const std::size_t len = std::min<std::size_t>(
        {kVocab.size() - start, 8 + rng.next_below(24), size - pos});
    std::memcpy(out.data() + pos, kVocab.data() + start, len);
    pos += len;
    if (rng.next_bool(0.1) && pos < size)
      out[pos++] = static_cast<std::uint8_t>(rng.next_u64());
  }
  return out;
}

vfs::MemFs synthetic_base_os(std::string_view name, std::uint64_t seed,
                             int extra_libs, std::uint64_t payload_bytes,
                             ImageConfig* config_out) {
  Rng rng(seed);
  vfs::MemFs fs;
  (void)fs.mkdir("/bin", {0, 0, 0755, 0}, true);
  (void)fs.mkdir("/etc", {0, 0, 0755, 0}, true);
  (void)fs.mkdir("/usr/lib/locale", {0, 0, 0755, 0}, true);
  (void)fs.mkdir("/var/log", {0, 0, 0755, 0}, true);

  (void)fs.write_file("/etc/os-release", "NAME=" + std::string(name) + "\n");
  // The config files libc pulls in at startup (§4.1.4).
  (void)fs.write_file("/etc/nsswitch.conf", "passwd: files\ngroup: files\n");
  (void)fs.write_file("/etc/passwd", "root:x:0:0:root:/root:/bin/sh\n");
  (void)fs.write_file("/etc/group", "root:x:0:\n");
  (void)fs.write_file("/etc/ld.so.cache",
                      synthetic_file_content(rng, 96 * 1024));
  for (int i = 0; i < 6; ++i) {
    (void)fs.write_file("/usr/lib/locale/locale" + std::to_string(i) + ".dat",
                        synthetic_file_content(rng, 32 * 1024));
  }

  (void)fs.write_file("/bin/sh", synthetic_file_content(rng, 800 * 1024),
                      {0, 0, 0755, 0});
  (void)fs.write_file("/usr/lib/libc.so.6",
                      synthetic_file_content(rng, 2 * 1024 * 1024),
                      {0, 0, 0755, 0});
  (void)fs.symlink("libc.so.6", "/usr/lib/libc.so");

  ImageConfig config;
  config.abi.glibc = runtime::Version::parse("2.36");
  const std::uint64_t per_lib =
      extra_libs > 0 ? payload_bytes / static_cast<std::uint64_t>(extra_libs)
                     : 0;
  for (int i = 0; i < extra_libs; ++i) {
    const std::string lib = "libdep" + std::to_string(i);
    (void)fs.write_file("/usr/lib/" + lib + ".so.1",
                        synthetic_file_content(rng, per_lib),
                        {0, 0, 0755, 0});
    runtime::Library entry;
    entry.name = lib;
    entry.abi = runtime::Version::parse("1.0");
    entry.requires_glibc = runtime::Version::parse("2.30");
    config.abi.libraries.push_back(entry);
  }
  if (config_out) *config_out = std::move(config);
  return fs;
}

}  // namespace hpcc::image
