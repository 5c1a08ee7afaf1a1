#include "report.hh"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "common/logging.hh"
#include "obs/artifact.hh"
#include "obs/json.hh"
#include "obs/timeline.hh"

namespace wo {

namespace {

bool
readTextFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return true;
}

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s)
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default:  out.push_back(c);
        }
    return out;
}

std::string
baseName(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

// --- the merged campaign data model ---------------------------------

struct CellRow
{
    std::string key, verdict;
    double ms = 0;
    std::uint64_t mat_us = 0, run_us = 0, shrink_us = 0;
};

struct FailRow
{
    std::string dedup, kind, cell, file;
    std::uint64_t count = 0, insns = 0, orig_insns = 0;
};

struct Data
{
    Json header = Json();  //!< journal campaign header (or null)
    Json summary = Json(); //!< campaign.summary.json (or null)
    std::vector<CellRow> cells;
    std::vector<FailRow> failures; //!< deduplicated, discovery order
    std::vector<std::pair<std::string, Json>> benches;
    std::vector<std::string> artifacts; //!< relative links
};

void
loadJournal(const std::string &path, Data &d)
{
    std::string text;
    if (!readTextFile(path, text))
        return;
    d.artifacts.push_back(baseName(path));
    std::map<std::string, std::size_t> fail_index;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        const std::string_view line(text.data() + start, end - start);
        start = end + 1;
        if (line.empty())
            continue;
        JsonParseResult p = jsonParse(line);
        if (!p.ok || !p.value.isObject())
            continue; // a torn tail line is expected after a crash
        const std::string type = p.value.stringAt("type");
        if (type == "campaign") {
            d.header = p.value;
        } else if (type == "cell") {
            CellRow c;
            c.key = p.value.stringAt("key");
            c.verdict = p.value.stringAt("verdict");
            c.ms = p.value.numberAt("ms");
            c.mat_us = p.value.uintAt("mat_us");
            c.run_us = p.value.uintAt("run_us");
            c.shrink_us = p.value.uintAt("shrink_us");
            d.cells.push_back(std::move(c));
        } else if (type == "failure") {
            const std::string dedup = p.value.stringAt("dedup");
            auto it = fail_index.find(dedup);
            if (it == fail_index.end()) {
                FailRow f;
                f.dedup = dedup;
                f.kind = p.value.stringAt("kind");
                f.cell = p.value.stringAt("cell");
                f.file = p.value.stringAt("file");
                f.insns = p.value.uintAt("insns");
                f.orig_insns = p.value.uintAt("orig_insns");
                f.count = 1;
                fail_index[dedup] = d.failures.size();
                d.failures.push_back(std::move(f));
            } else {
                ++d.failures[it->second].count;
            }
        }
    }
}

Data
loadData(const ReportCfg &cfg)
{
    Data d;
    loadJournal(cfg.out_dir + "/campaign.journal.jsonl", d);
    std::string text;
    if (readTextFile(cfg.out_dir + "/campaign.summary.json", text)) {
        JsonParseResult p = jsonParse(text);
        if (p.ok) {
            d.summary = std::move(p.value);
            d.artifacts.push_back("campaign.summary.json");
        }
    }
    for (const char *opt :
         {"campaign.trace.json", "campaign.folded.txt"})
        if (std::filesystem::exists(cfg.out_dir + "/" + opt))
            d.artifacts.push_back(opt);

    std::set<std::string> bench_paths(cfg.bench_files.begin(),
                                      cfg.bench_files.end());
    std::error_code ec;
    for (const auto &e :
         std::filesystem::directory_iterator(cfg.out_dir, ec)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 &&
            name.size() > 5 + 6 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            bench_paths.insert(e.path().string());
    }
    for (const std::string &bp : bench_paths) {
        if (!readTextFile(bp, text))
            continue;
        JsonParseResult p = jsonParse(text);
        if (p.ok && p.value.isObject())
            d.benches.emplace_back(baseName(bp), std::move(p.value));
    }
    return d;
}

// --- verdict census -------------------------------------------------

/** Verdict display classes, in table order; verify campaigns add
 *  inconclusive (a budget tripped) and nonsc (an expected escape). */
constexpr int num_classes = 8;
const char *const class_name[num_classes] = {
    "clean",    "race",         "hw",    "deadlock",
    "livelock", "inconclusive", "nonsc", "error"};
const char *const class_icon[num_classes] = {
    "&#10003;", "&#8767;", "&#10007;", "&#8856;",
    "&#8634;",  "&#8943;", "&#8800;",  "&#63;"};

int
classOf(const std::string &verdict)
{
    if (verdict.rfind("hw", 0) == 0)
        return 2;
    for (int k = 0; k < num_classes - 1; ++k)
        if (verdict == class_name[k])
            return k;
    return num_classes - 1; // "error" and anything unrecognized
}

/** "litmus:iriw|drf0|n7|..." -> program "litmus:iriw", policy "drf0". */
void
splitKey(const std::string &key, std::string &program,
         std::string &policy)
{
    const std::size_t p1 = key.find('|');
    program = key.substr(0, p1);
    if (p1 == std::string::npos) {
        policy = "?";
        return;
    }
    const std::size_t p2 = key.find('|', p1 + 1);
    policy = key.substr(p1 + 1, p2 == std::string::npos
                                    ? std::string::npos
                                    : p2 - p1 - 1);
}

// --- section renderers ----------------------------------------------

std::string
statTiles(const Data &d)
{
    std::uint64_t ran = 0, resumed = 0, duplicate = 0, clean = 0;
    std::uint64_t hw_cells = 0;
    double cps = 0, p50 = 0, p99 = 0;
    if (d.summary.isObject()) {
        ran = d.summary.uintAt("ran");
        resumed = d.summary.uintAt("resumed");
        duplicate = d.summary.uintAt("duplicate");
        clean = d.summary.uintAt("clean");
        hw_cells = d.summary.uintAt("hw");
        cps = d.summary.numberAt("cells_per_sec");
        p50 = d.summary.numberAt("lat_p50_ms");
        p99 = d.summary.numberAt("lat_p99_ms");
    } else {
        std::vector<double> lat;
        for (const CellRow &c : d.cells) {
            ++ran;
            const int k = classOf(c.verdict);
            clean += k == 0;
            hw_cells += k == 2;
            lat.push_back(c.ms);
        }
        std::sort(lat.begin(), lat.end());
        if (!lat.empty()) {
            p50 = lat[lat.size() / 2];
            p99 = lat[std::min(lat.size() - 1,
                               static_cast<std::size_t>(
                                   0.99 * static_cast<double>(
                                              lat.size())))];
        }
    }
    std::string out = "<div class=tiles>\n";
    const auto tile = [&](const std::string &value, const char *label,
                          const char *cls = "") {
        out += strprintf("<div class=tile><div class=\"tv %s\">%s</div>"
                         "<div class=tl>%s</div></div>\n",
                         cls, value.c_str(), label);
    };
    tile(strprintf("%llu", static_cast<unsigned long long>(ran)),
         "cells run");
    if (resumed > 0)
        tile(strprintf("%llu",
                       static_cast<unsigned long long>(resumed)),
             "resumed");
    if (duplicate > 0)
        tile(strprintf("%llu",
                       static_cast<unsigned long long>(duplicate)),
             "duplicate");
    tile(strprintf("%llu", static_cast<unsigned long long>(clean)),
         "clean");
    tile(strprintf("%zu", d.failures.size()), "unique failures",
         d.failures.empty() ? "ok" : "bad");
    if (hw_cells > 0)
        tile(strprintf("%llu",
                       static_cast<unsigned long long>(hw_cells)),
             "hw-failing cells", "bad");
    if (cps > 0)
        tile(strprintf("%.0f", cps), "cells / s");
    tile(strprintf("%.2f / %.2f", p50, p99), "cell p50 / p99 ms");
    out += "</div>\n";
    return out;
}

std::string
outcomeMatrix(const Data &d)
{
    // program -> policy -> census.  Policies keep first-seen order so
    // the columns match the campaign's --policies list.
    std::vector<std::string> policies;
    std::map<std::string, std::map<std::string,
                                   std::array<std::uint64_t,
                                              num_classes>>> matrix;
    for (const CellRow &c : d.cells) {
        std::string program, policy;
        splitKey(c.key, program, policy);
        if (std::find(policies.begin(), policies.end(), policy) ==
            policies.end())
            policies.push_back(policy);
        auto &census = matrix[program][policy];
        ++census[static_cast<std::size_t>(classOf(c.verdict))];
    }
    if (matrix.empty())
        return "<p class=muted>no journaled cells.</p>\n";

    std::string out = "<table class=matrix><thead><tr>"
                      "<th>program</th>";
    for (const std::string &p : policies)
        out += "<th>" + htmlEscape(p) + "</th>";
    out += "</tr></thead><tbody>\n";
    for (const auto &[program, row] : matrix) {
        out += "<tr><td class=prog>" + htmlEscape(program) + "</td>";
        for (const std::string &p : policies) {
            out += "<td>";
            const auto it = row.find(p);
            if (it == row.end()) {
                out += "<span class=muted>&mdash;</span>";
            } else {
                for (int k = 0; k < num_classes; ++k)
                    if (it->second[static_cast<std::size_t>(k)] > 0)
                        out += strprintf(
                            "<span class=\"pill c-%s\" data-tip=\"%s\">"
                            "%s&nbsp;%llu</span> ",
                            class_name[k], class_name[k],
                            class_icon[k],
                            static_cast<unsigned long long>(
                                it->second[static_cast<std::size_t>(
                                    k)]));
            }
            out += "</td>";
        }
        out += "</tr>\n";
    }
    out += "</tbody></table>\n";
    return out;
}

std::string
latencyHistogram(const Data &d)
{
    if (d.cells.empty())
        return std::string();
    // Power-of-two microsecond buckets, like the live /metrics view.
    constexpr int nb = 28;
    std::uint64_t bucket[nb] = {};
    for (const CellRow &c : d.cells) {
        const std::uint64_t us =
            c.ms <= 0 ? 0 : static_cast<std::uint64_t>(c.ms * 1000.0);
        int b = 0;
        while (b + 1 < nb && (std::uint64_t{1} << b) < us)
            ++b;
        ++bucket[b];
    }
    int lo = 0, hi = nb - 1;
    while (lo < hi && bucket[lo] == 0)
        ++lo;
    while (hi > lo && bucket[hi] == 0)
        --hi;
    const int n = hi - lo + 1;
    std::uint64_t peak = 1;
    for (int b = lo; b <= hi; ++b)
        peak = std::max(peak, bucket[b]);

    // label_room keeps the peak's direct label inside the viewBox:
    // the tallest bar tops out 12px below the plot ceiling.
    const double bw = 26, gap = 2, ph = 150, axis = 22, pad = 8;
    const double label_room = 12;
    const double w = pad * 2 + n * bw;
    const double h = pad + ph + axis;
    std::string svg = strprintf(
        "<svg class=chart viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" "
        "height=\"%.0f\" role=\"img\" aria-label=\"per-cell latency "
        "histogram\">\n",
        w, h, w, h);
    svg += strprintf("<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" "
                     "y2=\"%.1f\" class=axis />\n",
                     pad, pad + ph + 0.5, w - pad, pad + ph + 0.5);
    for (int b = lo; b <= hi; ++b) {
        const double bh =
            (ph - label_room) * static_cast<double>(bucket[b]) /
            static_cast<double>(peak);
        const double x = pad + (b - lo) * bw + gap / 2;
        const double y = pad + ph - bh;
        const double bwid = bw - gap, r = std::min(3.0, bh);
        const double le_ms =
            static_cast<double>(std::uint64_t{1} << b) / 1000.0;
        // Rounded top, square bottom: data ends round, baseline sits.
        svg += strprintf(
            "<path class=bar d=\"M%.1f %.1f L%.1f %.1f Q%.1f %.1f "
            "%.1f %.1f L%.1f %.1f Q%.1f %.1f %.1f %.1f L%.1f %.1f Z\" "
            "data-tip=\"&le; %.3g ms: %llu cells\"/>\n",
            x, pad + ph, x, y + r, x, y, x + r, y, x + bwid - r, y,
            x + bwid, y, x + bwid, y + r, x + bwid, pad + ph,
            le_ms, static_cast<unsigned long long>(bucket[b]));
        if (bucket[b] == peak)
            svg += strprintf("<text class=dlabel x=\"%.1f\" y=\"%.1f\" "
                             "text-anchor=\"middle\">%llu</text>\n",
                             x + bwid / 2, y - 4,
                             static_cast<unsigned long long>(peak));
        if ((b - lo) % 2 == 0)
            svg += strprintf("<text class=alabel x=\"%.1f\" y=\"%.1f\" "
                             "text-anchor=\"middle\">%.3g</text>\n",
                             x + bwid / 2, pad + ph + 14, le_ms);
    }
    svg += strprintf("<text class=alabel x=\"%.1f\" y=\"%.1f\" "
                     "text-anchor=\"end\">ms (&le; bucket)</text>\n",
                     w - pad, h - 4);
    svg += "</svg>\n";

    // The table view (relief for the chart; also the a11y path).
    std::string table = "<details><summary>table view</summary>"
                        "<table><thead><tr><th>&le; ms</th>"
                        "<th>cells</th></tr></thead><tbody>";
    for (int b = lo; b <= hi; ++b)
        table += strprintf(
            "<tr><td>%.3g</td><td>%llu</td></tr>",
            static_cast<double>(std::uint64_t{1} << b) / 1000.0,
            static_cast<unsigned long long>(bucket[b]));
    table += "</tbody></table></details>\n";
    return svg + table;
}

std::string
laneDecomposition(const Data &d)
{
    const Json *lanes =
        d.summary.isObject() ? d.summary.find("lanes") : nullptr;
    if (!lanes || !lanes->isArray() || lanes->items().empty())
        return "<p class=muted>no lane summary (campaign.summary.json "
               "not found).</p>\n";

    double max_wall = 0;
    for (const Json &l : lanes->items())
        max_wall = std::max(max_wall, l.numberAt("wall_ms"));
    if (max_wall <= 0)
        return "<p class=muted>lanes recorded no wall time.</p>\n";

    const double label_w = 110, plot_w = 520, row_h = 26, bar_h = 14;
    const double w = label_w + plot_w + 10;
    const double h = lanes->items().size() * row_h + 6;
    std::string svg = strprintf(
        "<svg class=chart viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" "
        "height=\"%.0f\" role=\"img\" aria-label=\"per-lane span "
        "decomposition\">\n",
        w, h, w, h);
    double y = 3;
    for (const Json &l : lanes->items()) {
        const std::string lane = l.stringAt("lane");
        const double wall = l.numberAt("wall_ms");
        svg += strprintf("<text class=llabel x=\"%.1f\" y=\"%.1f\" "
                         "text-anchor=\"end\">%s</text>\n",
                         label_w - 8, y + bar_h - 3,
                         htmlEscape(lane).c_str());
        double x = label_w;
        const Json *spans = l.find("spans");
        for (int k = 0; k < num_span_kinds; ++k) {
            const char *kn = spanKindName(static_cast<SpanKind>(k));
            const Json *s = spans ? spans->find(kn) : nullptr;
            if (!s)
                continue;
            const double ms = s->numberAt("ms");
            const double seg = plot_w * ms / max_wall;
            if (seg < 0.5) {
                x += seg;
                continue;
            }
            svg += strprintf(
                "<rect class=seg x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" "
                "height=\"%.0f\" rx=\"2\" fill=\"var(--s%d)\" "
                "data-tip=\"%s: %.1f ms (%.0f%% of %s)\"/>\n",
                x, y, std::max(seg - 2.0, 1.0), bar_h, k + 1, kn, ms,
                wall > 0 ? 100.0 * ms / wall : 0.0,
                htmlEscape(lane).c_str());
            x += seg;
        }
        y += row_h;
    }
    svg += "</svg>\n";

    std::string legend = "<div class=legend>";
    for (int k = 0; k < num_span_kinds; ++k)
        legend += strprintf(
            "<span class=key><span class=swatch "
            "style=\"background:var(--s%d)\"></span>%s</span>",
            k + 1, spanKindName(static_cast<SpanKind>(k)));
    legend += "</div>\n";

    std::string table = "<details><summary>table view</summary>"
                        "<table><thead><tr><th>lane</th>"
                        "<th>wall ms</th>";
    for (int k = 0; k < num_span_kinds; ++k)
        table += strprintf("<th>%s ms</th>",
                           spanKindName(static_cast<SpanKind>(k)));
    table += "</tr></thead><tbody>";
    for (const Json &l : lanes->items()) {
        table += "<tr><td>" + htmlEscape(l.stringAt("lane")) +
                 strprintf("</td><td>%.1f</td>", l.numberAt("wall_ms"));
        const Json *spans = l.find("spans");
        for (int k = 0; k < num_span_kinds; ++k) {
            const Json *s =
                spans ? spans->find(spanKindName(
                            static_cast<SpanKind>(k)))
                      : nullptr;
            table += strprintf("<td>%.1f</td>",
                               s ? s->numberAt("ms") : 0.0);
        }
        table += "</tr>";
    }
    table += "</tbody></table></details>\n";
    return legend + svg + table;
}

std::string
violationBrowser(const ReportCfg &cfg, const Data &d)
{
    if (d.failures.empty())
        return "<p class=\"status ok\">&#10003; hardware clean: no "
               "violation survived shrinking.</p>\n";
    std::string out;
    for (const FailRow &f : d.failures) {
        out += "<div class=fail>\n";
        out += strprintf(
            "<div class=fhead><span class=\"status bad\">&#9888; "
            "%s</span><span class=muted> &times;%llu</span>"
            "<span class=fcell>%s</span></div>\n",
            htmlEscape(f.kind).c_str(),
            static_cast<unsigned long long>(f.count),
            htmlEscape(f.cell).c_str());
        out += strprintf(
            "<div class=muted>minimized to %llu instructions%s "
            "&mdash; %s</div>\n",
            static_cast<unsigned long long>(f.insns),
            f.orig_insns > f.insns
                ? strprintf(" (from %llu)",
                            static_cast<unsigned long long>(
                                f.orig_insns))
                      .c_str()
                : "",
            htmlEscape(baseName(f.file)).c_str());

        // Evidence lives next to the journal; the journal's recorded
        // path may be relative to the campaign's cwd instead.
        const auto resolve = [&](const std::string &p) {
            if (std::filesystem::exists(p))
                return p;
            return cfg.out_dir + "/" + baseName(p);
        };
        std::string text;
        if (readTextFile(resolve(f.file), text))
            out += "<details open><summary>shrunk reproducer</summary>"
                   "<pre class=wo>" +
                   htmlEscape(text) + "</pre></details>\n";
        const std::string stem =
            f.file.size() > 3 ? f.file.substr(0, f.file.size() - 3)
                              : f.file;
        if (readTextFile(resolve(stem + ".hb.svg"), text))
            out += "<details open><summary>happens-before witness"
                   "</summary><div class=hbcard>" +
                   text + "</div></details>\n";
        if (readTextFile(resolve(stem + ".monitor.txt"), text))
            out += "<details><summary>monitor report</summary>"
                   "<pre class=wo>" +
                   htmlEscape(text) + "</pre></details>\n";
        out += "</div>\n";
    }
    return out;
}

std::string
benchTables(const Data &d)
{
    if (d.benches.empty())
        return std::string();
    std::string out = "<h2>bench artifacts</h2>\n";
    for (const auto &[name, j] : d.benches) {
        out += "<h3>" + htmlEscape(name) + "</h3>\n";
        const Json *table = j.find("table");
        if (table && table->isArray() && !table->items().empty() &&
            table->items().front().isObject()) {
            out += "<table><thead><tr>";
            for (const auto &[col, v] :
                 table->items().front().members()) {
                (void)v;
                out += "<th>" + htmlEscape(col) + "</th>";
            }
            out += "</tr></thead><tbody>";
            for (const Json &row : table->items()) {
                out += "<tr>";
                for (const auto &[col, v] : row.members()) {
                    (void)col;
                    out += "<td>" +
                           htmlEscape(v.isString() ? v.stringValue()
                                                   : v.dump(0)) +
                           "</td>";
                }
                out += "</tr>";
            }
            out += "</tbody></table>\n";
        } else {
            out += "<pre class=wo>" + htmlEscape(j.dump(1)) +
                   "</pre>\n";
        }
    }
    return out;
}

// The style block follows the dataviz reference palette: roles as CSS
// custom properties, dark mode selected (not flipped) from the same
// ramps, status colors reserved for verdict state.
const char *const style_block = R"css(
:root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a;
  --s4: #eda100; --s5: #e87ba4; --s6: #008300;
  --good: #0ca30c; --warn: #fab219; --serious: #ec835a;
  --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70;
    --s4: #c98500; --s5: #d55181; --s6: #008300;
  }
}
* { box-sizing: border-box; }
body { margin: 0; padding: 24px; background: var(--page);
  color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif; }
main { max-width: 960px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
h3 { font-size: 13px; margin: 16px 0 6px; color: var(--ink2); }
.sub { color: var(--ink2); margin: 0 0 16px; }
.muted { color: var(--muted); }
section, .tile, .fail { background: var(--surface);
  border: 1px solid var(--border); border-radius: 8px; }
section { padding: 14px 16px; margin: 12px 0; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; }
.tile { padding: 10px 16px; min-width: 110px; }
.tv { font-size: 22px; }
.tv.ok { color: var(--good); } .tv.bad { color: var(--critical); }
.tl { font-size: 12px; color: var(--ink2); }
table { border-collapse: collapse; font-size: 13px; margin: 6px 0; }
th, td { text-align: left; padding: 3px 10px 3px 0;
  border-bottom: 1px solid var(--grid); font-weight: normal; }
th { color: var(--muted); font-variant-numeric: tabular-nums; }
td { font-variant-numeric: tabular-nums; }
.matrix .prog { font-family: ui-monospace, Menlo, monospace;
  font-size: 12px; }
.pill { white-space: nowrap; font-size: 12px; }
.c-clean { color: var(--good); }
.c-race { color: var(--warn); }
.c-hw { color: var(--critical); }
.c-deadlock, .c-livelock { color: var(--serious); }
.c-error, .c-inconclusive, .c-nonsc { color: var(--muted); }
.pill { border: 1px solid var(--border); border-radius: 9px;
  padding: 0 6px; }
.chart { display: block; margin: 8px 0; max-width: 100%; }
.chart .bar { fill: var(--s1); }
.chart .bar:hover, .chart .seg:hover { opacity: 0.8; }
.chart .axis { stroke: var(--axis); stroke-width: 1; }
.chart .alabel { fill: var(--muted); font-size: 10px; }
.chart .dlabel { fill: var(--ink2); font-size: 10px; }
.chart .llabel { fill: var(--ink2); font-size: 11px; }
.legend { display: flex; flex-wrap: wrap; gap: 12px;
  font-size: 12px; color: var(--ink2); margin: 4px 0; }
.key { display: inline-flex; align-items: center; gap: 5px; }
.swatch { width: 10px; height: 10px; border-radius: 2px;
  display: inline-block; }
.status.ok { color: var(--good); }
.status.bad { color: var(--critical); }
.fail { padding: 12px 14px; margin: 10px 0; }
.fhead { display: flex; gap: 10px; align-items: baseline; }
.fcell { font-family: ui-monospace, Menlo, monospace;
  font-size: 11px; color: var(--muted); overflow-wrap: anywhere; }
pre.wo { background: var(--page); border: 1px solid var(--grid);
  border-radius: 6px; padding: 10px; font-size: 12px;
  overflow-x: auto; }
.hbcard { background: #fcfcfb; border: 1px solid var(--grid);
  border-radius: 6px; padding: 6px; overflow-x: auto; }
details summary { cursor: pointer; color: var(--ink2);
  font-size: 12px; margin: 6px 0; }
.links a { color: var(--s1); margin-right: 14px; }
#tip { position: fixed; pointer-events: none; display: none;
  background: var(--ink); color: var(--page);
  padding: 3px 8px; border-radius: 4px; font-size: 12px;
  z-index: 10; max-width: 340px; }
)css";

// The hover layer: one tooltip div fed by data-tip attributes.
const char *const script_block = R"js(
const tip = document.getElementById('tip');
document.addEventListener('mouseover', e => {
  const t = e.target.closest('[data-tip]');
  if (!t) { tip.style.display = 'none'; return; }
  tip.textContent = t.getAttribute('data-tip');
  tip.style.display = 'block';
});
document.addEventListener('mousemove', e => {
  if (tip.style.display !== 'block') return;
  const pad = 12;
  let x = e.clientX + pad, y = e.clientY + pad;
  const r = tip.getBoundingClientRect();
  if (x + r.width > innerWidth - 4) x = e.clientX - r.width - pad;
  if (y + r.height > innerHeight - 4) y = e.clientY - r.height - pad;
  tip.style.left = x + 'px'; tip.style.top = y + 'px';
});
)js";

} // namespace

std::string
buildCampaignReportHtml(const ReportCfg &cfg, std::string *error)
{
    Data d = loadData(cfg);
    if (d.cells.empty() && !d.summary.isObject() &&
        d.failures.empty()) {
        if (error)
            *error = "nothing to report in '" + cfg.out_dir +
                     "': no campaign.journal.jsonl or "
                     "campaign.summary.json";
        return std::string();
    }

    std::string sub;
    if (d.header.isObject()) {
        sub = strprintf(
            "seed %llu &middot; %llu-cell budget &middot; %llu jobs",
            static_cast<unsigned long long>(d.header.uintAt("seed")),
            static_cast<unsigned long long>(d.header.uintAt("cells")),
            static_cast<unsigned long long>(d.header.uintAt("jobs")));
        const std::string pols = d.header.stringAt("policies");
        if (!pols.empty())
            sub += " &middot; policies " + htmlEscape(pols);
        if (d.header.boolAt("inject_reserve_bug"))
            sub += " &middot; <span class=\"status bad\">seeded "
                   "reserve-bit fault</span>";
    }

    std::string html;
    html += "<!doctype html>\n<html lang=\"en\">\n<head>\n"
            "<meta charset=\"utf-8\">\n"
            "<meta name=\"viewport\" content=\"width=device-width, "
            "initial-scale=1\">\n<title>" +
            htmlEscape(cfg.title) + "</title>\n<style>" + style_block +
            "</style>\n</head>\n<body>\n<main>\n";
    html += "<h1>" + htmlEscape(cfg.title) + "</h1>\n";
    if (!sub.empty())
        html += "<p class=sub>" + sub + "</p>\n";
    html += statTiles(d);
    html += "<h2>outcome matrix</h2>\n<section>" + outcomeMatrix(d) +
            "</section>\n";
    html += "<h2>per-cell latency</h2>\n<section>" +
            latencyHistogram(d) + "</section>\n";
    html += "<h2>where the fleet's time went</h2>\n<section>" +
            laneDecomposition(d) + "</section>\n";
    html += "<h2>violations</h2>\n" + violationBrowser(cfg, d);
    html += benchTables(d);
    if (!d.artifacts.empty()) {
        html += "<h2>artifacts</h2>\n<p class=links>";
        for (const std::string &a : d.artifacts)
            html += "<a href=\"" + a + "\">" + htmlEscape(a) + "</a>";
        html += "</p>\n";
    }
    html += "</main>\n<div id=tip></div>\n<script>" + std::string(
                script_block) + "</script>\n</body>\n</html>\n";
    return html;
}

std::string
writeCampaignReport(const ReportCfg &cfg, std::string *error)
{
    const std::string html = buildCampaignReportHtml(cfg, error);
    if (html.empty())
        return std::string();
    const std::string path = cfg.html_path.empty()
                                 ? cfg.out_dir + "/report.html"
                                 : cfg.html_path;
    if (!writeFile(path, html)) {
        if (error)
            *error = "cannot write " + path;
        return std::string();
    }
    return path;
}

} // namespace wo
