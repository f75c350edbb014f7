#include "propeller/directives.h"

#include <sstream>

namespace propeller::core {

std::string
CcProfile::serialize() const
{
    std::ostringstream os;
    for (const auto &[fn, spec] : clusters) {
        os << "!" << fn << "\n";
        for (size_t c = 0; c < spec.clusters.size(); ++c) {
            os << "!!";
            if (static_cast<int>(c) == spec.coldIndex)
                os << "cold";
            bool first = static_cast<int>(c) != spec.coldIndex;
            for (uint32_t id : spec.clusters[c]) {
                if (first) {
                    os << id;
                    first = false;
                } else {
                    os << " " << id;
                }
            }
            os << "\n";
        }
    }
    return os.str();
}

std::string
LdProfile::serialize() const
{
    std::ostringstream os;
    for (const auto &sym : symbolOrder)
        os << sym << "\n";
    return os.str();
}

} // namespace propeller::core
