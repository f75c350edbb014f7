#include <cassert>

#include "workload/workload.h"

/**
 * @file
 * Named benchmark configurations matching paper Table 2, scaled ~100x
 * down in code size (the microarchitecture model is scaled to match; see
 * the uarch constants in sim/machine.cc).  The paper's reported
 * characteristics are attached so bench_table2 can print
 * paper-vs-generated side by side.
 */

namespace propeller::workload {

namespace {

WorkloadConfig
base()
{
    WorkloadConfig cfg;
    cfg.callFanout = 3;
    cfg.ehFraction = 0.05;
    cfg.rodataPerModule = 2048;
    // Local parallelism (codegen fan-out, per-function WPA): all hardware
    // threads.  propeller-cli --jobs and the benches override per run.
    cfg.jobs = 0;
    return cfg;
}

std::vector<WorkloadConfig>
makeAppConfigs()
{
    std::vector<WorkloadConfig> configs;

    {
        WorkloadConfig c = base();
        c.name = "clang";
        c.seed = 121;
        c.modules = 160;
        c.functions = 1600;
        c.hotFunctions = 130;
        c.coldObjectFraction = 0.67;
        c.minBlocks = 3;
        c.maxBlocks = 33;
        c.coldPathDensity = 0.40;
        c.pgoStaleness = 0.26;
        c.handAsmFunctions = 2;
        c.multiModalFunctions = 6;
        c.paperText = "72 MB";
        c.paperFuncs = "160 K";
        c.paperBlocks = "2.1 M";
        c.paperCold = "67%";
        configs.push_back(c);
    }
    {
        WorkloadConfig c = base();
        c.name = "mysql";
        c.seed = 102;
        c.modules = 120;
        c.functions = 610;
        c.hotFunctions = 60;
        c.coldObjectFraction = 0.93;
        c.minBlocks = 3;
        c.maxBlocks = 63;
        c.coldPathDensity = 0.35;
        c.pgoStaleness = 0.18;
        c.handAsmFunctions = 1;
        c.multiModalFunctions = 2;
        c.paperText = "26 MB";
        c.paperFuncs = "61 K";
        c.paperBlocks = "1.4 M";
        c.paperCold = "93%";
        configs.push_back(c);
    }
    {
        WorkloadConfig c = base();
        c.name = "spanner";
        c.distributedBuild = true;
        c.pgoTrainMinutes = 48;
        c.propTrainMinutes = 45;
        c.seed = 1034;
        c.modules = 300;
        c.functions = 5620;
        c.hotFunctions = 150;
        c.coldObjectFraction = 0.83;
        c.minBlocks = 3;
        c.maxBlocks = 36;
        c.coldPathDensity = 0.38;
        c.pgoStaleness = 0.26;
        c.integrityCheckedFunctions = 3;
        c.handAsmFunctions = 4;
        c.multiModalFunctions = 8;
        c.paperText = "175 MB";
        c.paperFuncs = "562 K";
        c.paperBlocks = "7.8 M";
        c.paperCold = "83%";
        configs.push_back(c);
    }
    {
        WorkloadConfig c = base();
        c.name = "search";
        c.distributedBuild = true;
        c.pgoTrainMinutes = 8;
        c.propTrainMinutes = 8;
        c.seed = 104;
        c.modules = 400;
        c.functions = 17000;
        c.hotFunctions = 420;
        c.coldObjectFraction = 0.95;
        c.minBlocks = 3;
        c.maxBlocks = 28;
        c.coldPathDensity = 0.38;
        c.pgoStaleness = 0.34;
        c.handAsmFunctions = 6;
        c.multiModalFunctions = 10;
        c.hugePages = true;
        c.paperText = "413 MB";
        c.paperFuncs = "1.7 M";
        c.paperBlocks = "18 M";
        c.paperCold = "95%";
        configs.push_back(c);
    }
    {
        WorkloadConfig c = base();
        c.name = "superroot";
        c.distributedBuild = true;
        c.pgoTrainMinutes = 37;
        c.propTrainMinutes = 18;
        c.seed = 105;
        c.modules = 500;
        c.functions = 27000;
        c.hotFunctions = 900;
        c.coldObjectFraction = 0.82;
        c.minBlocks = 3;
        c.maxBlocks = 27;
        c.coldPathDensity = 0.36;
        c.pgoStaleness = 0.04;
        c.integrityCheckedFunctions = 4;
        c.handAsmFunctions = 8;
        c.multiModalFunctions = 12;
        c.paperText = "598 MB";
        c.paperFuncs = "2.7 M";
        c.paperBlocks = "30 M";
        c.paperCold = "82%";
        configs.push_back(c);
    }
    {
        WorkloadConfig c = base();
        c.name = "bigtable";
        c.distributedBuild = true;
        c.pgoTrainMinutes = 30;
        c.propTrainMinutes = 43;
        c.seed = 116;
        c.modules = 250;
        c.functions = 3680;
        c.hotFunctions = 750;
        c.coldObjectFraction = 0.88;
        c.minBlocks = 3;
        c.maxBlocks = 28;
        c.coldPathDensity = 0.37;
        c.pgoStaleness = 0.06;
        c.integrityCheckedFunctions = 3;
        c.handAsmFunctions = 3;
        c.multiModalFunctions = 6;
        c.paperText = "93 MB";
        c.paperFuncs = "368 K";
        c.paperBlocks = "4.2 M";
        c.paperCold = "88%";
        configs.push_back(c);
    }
    return configs;
}

WorkloadConfig
spec(const char *name, uint64_t seed, uint32_t modules, uint32_t functions,
     uint32_t hot, double cold, uint32_t max_blocks)
{
    WorkloadConfig c = base();
    c.name = name;
    c.seed = seed;
    c.modules = modules;
    c.functions = functions;
    c.hotFunctions = hot;
    c.coldObjectFraction = cold;
    c.minBlocks = 3;
    c.maxBlocks = max_blocks;
    c.coldPathDensity = 0.30;
    c.pgoStaleness = 0.12;
    c.ehFraction = 0.02;
    c.rodataPerModule = 1024;
    c.evalInstructions = 3'000'000;
    c.profileInstructions = 3'000'000;
    c.paperText = "34 KB - 4 MB";
    c.paperFuncs = "80 - 12 K";
    c.paperBlocks = "1 K - 107 K";
    c.paperCold = "21% - 88%";
    return c;
}

std::vector<WorkloadConfig>
makeSpecConfigs()
{
    return {
        spec("500.perlbench", 201, 12, 240, 100, 0.35, 23),
        spec("502.gcc", 202, 30, 1200, 300, 0.50, 21),
        spec("505.mcf", 203, 3, 9, 6, 0.25, 30),
        spec("523.xalancbmk", 204, 25, 900, 250, 0.55, 22),
        spec("525.x264", 205, 8, 150, 70, 0.40, 26),
        spec("531.deepsjeng", 206, 5, 30, 20, 0.30, 28),
        spec("541.leela", 207, 6, 60, 35, 0.35, 25),
        spec("557.xz", 208, 4, 25, 12, 0.45, 24),
    };
}

} // namespace

const std::vector<WorkloadConfig> &
appConfigs()
{
    static const std::vector<WorkloadConfig> configs = makeAppConfigs();
    return configs;
}

const std::vector<WorkloadConfig> &
specConfigs()
{
    static const std::vector<WorkloadConfig> configs = makeSpecConfigs();
    return configs;
}

const WorkloadConfig &
configByName(const std::string &name)
{
    for (const auto &cfg : appConfigs()) {
        if (cfg.name == name)
            return cfg;
    }
    for (const auto &cfg : specConfigs()) {
        if (cfg.name == name)
            return cfg;
    }
    assert(false && "unknown workload config");
    static WorkloadConfig dummy;
    return dummy;
}

} // namespace propeller::workload
