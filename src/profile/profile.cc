#include "profile/profile.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "sched/sched.h"
#include "support/bytes.h"
#include "support/check.h"
#include "support/hash.h"

namespace propeller::profile {

namespace {

using support::ErrorCode;
using support::makeError;
using support::StatusOr;

/** Leading magic of a serialized profile ("perf.data" file id). */
constexpr char kProfileMagic[4] = {'L', 'B', 'R', '1'};

support::Status
truncated(const char *what)
{
    return makeError(ErrorCode::kTruncated, std::string("truncated ") + what);
}

} // namespace

uint64_t
Profile::sizeInBytes() const
{
    // Header + per-sample payload; LBR records are 16 bytes each in the
    // perf ring buffer format.
    uint64_t bytes = 64;
    for (const auto &sample : samples)
        bytes += 8 + sample.count * 16ull;
    return bytes;
}

std::vector<uint8_t>
Profile::serialize() const
{
    std::vector<uint8_t> out(std::begin(kProfileMagic),
                             std::end(kProfileMagic));
    encodeUleb128(binaryHash, out);
    encodeUleb128(totalRetired, out);
    encodeUleb128(samples.size(), out);
    for (const auto &sample : samples) {
        out.push_back(sample.count);
        for (unsigned i = 0; i < sample.count; ++i) {
            encodeUleb128(sample.records[i].from, out);
            encodeUleb128(sample.records[i].to, out);
        }
    }
    putLe64(fnv1a(out.data(), out.size()), out);
    return out;
}

StatusOr<Profile>
Profile::deserializeChecked(const std::vector<uint8_t> &data)
{
    constexpr size_t kMinSize = sizeof(kProfileMagic) + 3 + 8;
    if (data.size() < kMinSize)
        return makeError(ErrorCode::kTruncated,
                         "profile shorter than header + checksum (" +
                             std::to_string(data.size()) + " bytes)");
    ByteReader in(data);
    if (!in.magic({kProfileMagic, sizeof kProfileMagic}))
        return makeError(ErrorCode::kMalformed, "bad profile magic");

    uint64_t want = 0;
    if (!in.footer(want) || want != fnv1a(data.data(), data.size() - 8))
        return makeError(ErrorCode::kChecksumMismatch,
                         "profile content checksum does not verify");

    Profile p;
    uint64_t n = 0;
    if (!in.uleb(p.binaryHash))
        return truncated("binary hash");
    if (!in.uleb(p.totalRetired))
        return truncated("retired count");
    if (!in.uleb(n))
        return truncated("sample count");
    // Every sample needs at least one byte, so a larger count is corrupt
    // input (guards the reserve() below against fuzzed bytes).
    if (n > in.left())
        return makeError(ErrorCode::kMalformed,
                         "sample count " + std::to_string(n) +
                             " exceeds payload size");
    p.samples.reserve(n);
    for (uint64_t s = 0; s < n; ++s) {
        LbrSample &sample = p.samples.emplace_back();
        if (!in.u8(sample.count))
            return makeError(ErrorCode::kTruncated,
                             "sample " + std::to_string(s) +
                                 ": missing record count");
        if (sample.count > kLbrDepth)
            return makeError(ErrorCode::kMalformed,
                             "sample " + std::to_string(s) + ": " +
                                 std::to_string(sample.count) +
                                 " records exceeds LBR depth");
        for (unsigned i = 0; i < sample.count; ++i) {
            if (!in.uleb(sample.records[i].from))
                return truncated("branch source");
            if (!in.uleb(sample.records[i].to))
                return truncated("branch target");
        }
    }
    if (!in.done())
        return makeError(ErrorCode::kMalformed,
                         "trailing bytes after last sample");
    return p;
}

Profile
Profile::deserialize(const std::vector<uint8_t> &data)
{
    auto p = deserializeChecked(data);
    PROPELLER_CHECK(p.ok(), "truncated profile");
    return std::move(p).value();
}

std::vector<std::vector<uint8_t>>
serializeShards(const Profile &profile, uint32_t samplesPerShard)
{
    size_t n = profile.samples.size();
    size_t per = samplesPerShard == 0 ? std::max<size_t>(n, 1)
                                      : samplesPerShard;
    size_t shards = std::max<size_t>((n + per - 1) / per, 1);
    std::vector<std::vector<uint8_t>> out;
    out.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
        Profile shard;
        shard.binaryHash = profile.binaryHash;
        shard.totalRetired = profile.totalRetired;
        size_t begin = s * per;
        size_t end = std::min(n, begin + per);
        shard.samples.assign(profile.samples.begin() + begin,
                             profile.samples.begin() + end);
        out.push_back(shard.serialize());
    }
    return out;
}

Profile
loadShards(const std::vector<std::vector<uint8_t>> &shards,
           ShardLoadStats *stats)
{
    Profile merged;
    bool have_header = false;
    ShardLoadStats local;
    local.shardsTotal = static_cast<uint32_t>(shards.size());
    local.shardVersions.assign(shards.size(), 0);
    for (size_t s = 0; s < shards.size(); ++s) {
        auto decoded = Profile::deserializeChecked(shards[s]);
        if (!decoded.ok()) {
            ++local.shardsRejected;
            if (local.firstError.empty())
                local.firstError = ("shard " + std::to_string(s) + ": ") +
                                   decoded.status().toString();
            continue;
        }
        local.shardVersions[s] = decoded->binaryHash;
        if (!have_header) {
            merged.binaryHash = decoded->binaryHash;
            merged.totalRetired = decoded->totalRetired;
            have_header = true;
        }
        merged.samples.insert(merged.samples.end(),
                              decoded->samples.begin(),
                              decoded->samples.end());
    }
    std::vector<uint64_t> seen;
    for (uint64_t v : local.shardVersions)
        if (v != 0 && std::find(seen.begin(), seen.end(), v) == seen.end())
            seen.push_back(v);
    local.distinctVersions = static_cast<uint32_t>(seen.size());
    if (stats)
        *stats = local;
    return merged;
}

void
AggregatedProfile::merge(const AggregatedProfile &other)
{
    for (const auto &[key, count] : other.branches)
        branches[key] += count;
    for (const auto &[key, count] : other.ranges)
        ranges[key] += count;
    totalBranchEvents += other.totalBranchEvents;
}

namespace {

/** Aggregate the sample window [begin, end) into @p agg. */
void
aggregateRange(const Profile &profile, size_t begin, size_t end,
               AggregatedProfile &agg)
{
    for (size_t s = begin; s < end; ++s) {
        const LbrSample &sample = profile.samples[s];
        for (unsigned i = 0; i < sample.count; ++i) {
            const BranchRecord &rec = sample.records[i];
            ++agg.branches[AggregatedProfile::key(rec.from, rec.to)];
            ++agg.totalBranchEvents;
            if (i + 1 < sample.count) {
                // Straight-line execution between this branch's target and
                // the next branch's source.
                const BranchRecord &next = sample.records[i + 1];
                if (next.from >= rec.to) {
                    ++agg.ranges[AggregatedProfile::key(rec.to, next.from)];
                }
            }
        }
    }
}

} // namespace

AggregatedProfile
aggregate(const Profile &profile)
{
    return aggregate(profile, AggregationOptions{});
}

size_t
aggregationShardCount(const Profile &profile)
{
    constexpr size_t per = AggregationOptions::samplesPerShard;
    return std::max<size_t>((profile.samples.size() + per - 1) / per, 1);
}

void
aggregateShardInto(const Profile &profile, size_t shard,
                   AggregatedProfile &out)
{
    constexpr size_t per = AggregationOptions::samplesPerShard;
    aggregateRange(profile, shard * per,
                   std::min(profile.samples.size(), (shard + 1) * per), out);
}

AggregatedProfile
mergeAggregationShards(std::vector<AggregatedProfile> &slots)
{
    AggregatedProfile agg =
        slots.empty() ? AggregatedProfile{} : std::move(slots[0]);
    for (size_t s = 1; s < slots.size(); ++s)
        agg.merge(slots[s]);
    return agg;
}

namespace {

/**
 * Accumulate one window epoch into an ordered weighted map.  Each key's
 * value folds in fixed window order from integer counts, so the result
 * never depends on the epochs' hash-map iteration order.
 */
void
weighMap(std::map<uint64_t, double> &acc, double weight,
         const std::unordered_map<uint64_t, uint64_t> &epoch)
{
    for (const auto &[key, count] : epoch)
        acc[key] += weight * static_cast<double>(count);
}

/** Round an ordered weighted map, dropping keys that round to zero. */
void
quantizeMap(const std::map<uint64_t, double> &acc, double scale,
            std::unordered_map<uint64_t, uint64_t> &out)
{
    for (const auto &[key, weight] : acc) {
        auto q = static_cast<uint64_t>(std::llround(weight * scale));
        if (q > 0)
            out.emplace(key, q);
    }
}

} // namespace

DecayedAggregate::DecayedAggregate(uint32_t window)
    : windowSize_(window < 1 ? 1 : window)
{
}

void
DecayedAggregate::fold(const AggregatedProfile &epoch, double decay)
{
    PROPELLER_CHECK(decay > 0.0 && decay <= 1.0,
                    "decay factor outside (0, 1]");
    PROPELLER_CHECK(decay_ == 0.0 || decay == decay_,
                    "decay factor changed between folds");
    decay_ = decay;
    window_.insert(window_.begin(), epoch);
    if (window_.size() > windowSize_)
        window_.pop_back();
    ++epochs_;
}

bool
DecayedAggregate::addAt(uint32_t age, const AggregatedProfile &late)
{
    if (age >= window_.size())
        return false;
    window_[age].merge(late);
    return true;
}

AggregatedProfile
DecayedAggregate::quantize(uint64_t scaleTo) const
{
    std::map<uint64_t, double> branches;
    std::map<uint64_t, double> ranges;
    double weight = 1.0;
    for (const AggregatedProfile &epoch : window_) {
        weighMap(branches, weight, epoch.branches);
        weighMap(ranges, weight, epoch.ranges);
        weight *= decay_;
    }

    double scale = 1.0;
    if (scaleTo > 0) {
        double max_branch = 0.0;
        for (const auto &[key, w] : branches)
            max_branch = std::max(max_branch, w);
        if (max_branch <= 0.0)
            return {};
        scale = static_cast<double>(scaleTo) / max_branch;
    }

    AggregatedProfile out;
    quantizeMap(branches, scale, out.branches);
    quantizeMap(ranges, scale, out.ranges);
    for (const auto &[key, count] : out.branches)
        out.totalBranchEvents += count;
    return out;
}

double
DecayedAggregate::totalBranchWeight() const
{
    double total = 0.0;
    double weight = 1.0;
    for (const AggregatedProfile &epoch : window_) {
        total += weight * static_cast<double>(epoch.totalBranchEvents);
        weight *= decay_;
    }
    return total;
}

bool
DecayedAggregate::empty() const
{
    for (const AggregatedProfile &epoch : window_) {
        if (epoch.totalBranchEvents > 0 || !epoch.branches.empty() ||
            !epoch.ranges.empty())
            return false;
    }
    return true;
}

AggregatedProfile
aggregate(const Profile &profile, const AggregationOptions &opts)
{
    // The shard partition depends only on the profile and the shard size:
    // per-shard maps are built by one worker each, then merged serially
    // in shard order, so the result — down to the hash maps' iteration
    // order — is independent of how many threads ran the shards.
    size_t shards = aggregationShardCount(profile);
    std::vector<AggregatedProfile> slots(shards);
    sched::parallelFor(opts.threads, shards, [&](size_t s) {
        aggregateShardInto(profile, s, slots[s]);
    });
    return mergeAggregationShards(slots);
}

} // namespace propeller::profile
