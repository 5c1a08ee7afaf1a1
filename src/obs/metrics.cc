#include "metrics.hh"

#include <set>

#include "common/logging.hh"

namespace wo {

Json
histogramToJson(const Histogram &h)
{
    Json j = Json::object();
    j.set("count", h.count());
    j.set("sum", h.sum());
    j.set("mean", h.mean());
    j.set("min", h.min());
    j.set("max", h.max());
    j.set("p50", h.percentile(50));
    j.set("p99", h.percentile(99));
    Json buckets = Json::array();
    for (const Histogram::Bucket &b : h.cumulativeBuckets()) {
        Json e = Json::object();
        e.set("le", Json(b.le));
        e.set("n", Json(b.cum));
        buckets.push(std::move(e));
    }
    j.set("buckets", std::move(buckets));
    return j;
}

Json *
MetricsRegistry::slot(const std::string &path)
{
    Json *node = &root_;
    std::size_t start = 0;
    while (true) {
        const std::size_t dot = path.find('.', start);
        const std::string part = path.substr(
            start, dot == std::string::npos ? std::string::npos
                                            : dot - start);
        Json *child = node->find(part);
        if (!child) {
            node->set(part, Json::object());
            child = node->find(part);
        }
        node = child;
        if (dot == std::string::npos)
            return node;
        start = dot + 1;
    }
}

void
MetricsRegistry::addGroup(const std::string &path, const StatGroup &g)
{
    Json *node = slot(path);
    if (!node->isObject())
        *node = Json::object();
    g.forEach(
        [&](const char *name, std::uint64_t v) { node->set(name, v); },
        [&](const char *name, const Histogram &h) {
            node->set(name, histogramToJson(h));
        });
}

void
MetricsRegistry::set(const std::string &path, Json value)
{
    *slot(path) = std::move(value);
}

namespace {

/** Keep exactly the Prometheus metric-name charset. */
std::string
promSanitize(const std::string &part)
{
    std::string out;
    out.reserve(part.size());
    for (char c : part) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

/** A sample value, rendered the way Prometheus parsers expect. */
std::string
promNumber(const Json &v)
{
    switch (v.kind()) {
      case Json::Kind::boolean:
        return v.boolValue() ? "1" : "0";
      case Json::Kind::double_number:
        return strprintf("%.10g", v.numberValue());
      default:
        return strprintf("%llu",
                         static_cast<unsigned long long>(v.uintValue()));
    }
}

/** Does this object leaf carry the histogram schema? */
bool
looksLikeHistogram(const Json &v)
{
    const Json *count = v.find("count");
    const Json *sum = v.find("sum");
    return count && sum && count->isNumber() && sum->isNumber();
}

struct PromWriter
{
    std::string out;
    std::set<std::string> typed; //!< base names with a # TYPE line

    void
    type(const std::string &base, const char *kind)
    {
        if (typed.insert(base).second)
            out += "# TYPE " + base + " " + kind + "\n";
    }

    /** `base{labels,extra} value` with empty pieces elided. */
    void
    sample(const std::string &base, const std::string &labels,
           const std::string &extra, const std::string &value)
    {
        out += base;
        if (!labels.empty() || !extra.empty()) {
            out += '{';
            out += labels;
            if (!labels.empty() && !extra.empty())
                out += ',';
            out += extra;
            out += '}';
        }
        out += ' ';
        out += value;
        out += '\n';
    }

    void
    histogram(const std::string &base, const std::string &labels,
              const Json &v)
    {
        type(base, "histogram");
        const Json *buckets = v.find("buckets");
        if (buckets && buckets->isArray())
            for (const Json &b : buckets->items()) {
                const Json *le = b.find("le");
                const Json *n = b.find("n");
                if (!le || !n)
                    continue;
                sample(base + "_bucket", labels,
                       "le=\"" + promNumber(*le) + "\"", promNumber(*n));
            }
        sample(base + "_bucket", labels, "le=\"+Inf\"",
               promNumber(*v.find("count")));
        sample(base + "_sum", labels, "", promNumber(*v.find("sum")));
        sample(base + "_count", labels, "", promNumber(*v.find("count")));
    }

    void
    walk(const Json &node, const std::string &name,
         const std::string &labels)
    {
        if (node.isObject() && !looksLikeHistogram(node)) {
            for (const auto &[key, child] : node.members()) {
                // `part{label="x"}` components pass their labels
                // through to the sample line.
                const std::size_t brace = key.find('{');
                std::string part = key.substr(0, brace);
                std::string extra;
                if (brace != std::string::npos && key.back() == '}')
                    extra = key.substr(brace + 1,
                                       key.size() - brace - 2);
                std::string child_name =
                    name.empty() ? promSanitize(part)
                                 : name + "_" + promSanitize(part);
                std::string child_labels = labels;
                if (!extra.empty()) {
                    if (!child_labels.empty())
                        child_labels += ',';
                    child_labels += extra;
                }
                walk(child, child_name, child_labels);
            }
            return;
        }
        if (node.isObject()) {
            histogram(name, labels, node);
            return;
        }
        if (node.isNumber() || node.isBool()) {
            type(name, "gauge");
            sample(name, labels, "", promNumber(node));
        }
        // Strings and arrays have no Prometheus sample form: skipped.
    }
};

} // namespace

std::string
prometheusText(const Json &root, const std::string &prefix)
{
    std::string seed = promSanitize(prefix);
    while (!seed.empty() && seed.back() == '_')
        seed.pop_back();
    PromWriter w;
    w.walk(root, seed, "");
    return w.out;
}

} // namespace wo
