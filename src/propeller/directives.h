#ifndef PROPELLER_PROPELLER_DIRECTIVES_H
#define PROPELLER_PROPELLER_DIRECTIVES_H

/**
 * @file
 * The two Phase-3 output artifacts (paper Figure 1):
 *
 *  - cc_prof.txt — per-function basic block cluster directives consumed by
 *    the distributed codegen backends in Phase 4;
 *  - ld_prof.txt — the global symbol ordering consumed by the final
 *    relink action.
 *
 * Text formats follow the real Propeller's cluster-profile syntax:
 *
 *   !fn_00012           # function line
 *   !!0 3 5 7           # one cluster per '!!' line, block ids in order
 *   !!cold 2 4          # the cold cluster
 *
 * ld_prof.txt is one symbol per line.
 */

#include <string>
#include <vector>

#include "codegen/codegen.h"

namespace propeller::core {

/** cc_prof.txt: cluster directives for every hot function. */
struct CcProfile
{
    codegen::ClusterMap clusters;

    std::string serialize() const;

    /** Serialized size in bytes (build-system artifact accounting). */
    uint64_t sizeInBytes() const { return serialize().size(); }
};

/** ld_prof.txt: global symbol order for the relink. */
struct LdProfile
{
    std::vector<std::string> symbolOrder;

    std::string serialize() const;

    uint64_t sizeInBytes() const { return serialize().size(); }
};

} // namespace propeller::core

#endif // PROPELLER_PROPELLER_DIRECTIVES_H
