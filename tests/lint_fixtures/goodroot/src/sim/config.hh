#pragma once

// Fixture knob table: src/core/users.cc reads every row, so R12
// stays quiet.
#define FIXTURE_CONFIG(X)                          \
    X(unsigned long, dimms, 4, "", "NVM DIMMs")    \
    X(double, readNs, 60.0, "ns", "NVM read latency")

struct FixtureParams {
#define FIXTURE_CONFIG_DECLARE(type, member, def, unit, doc) \
    type member = def;
    FIXTURE_CONFIG(FIXTURE_CONFIG_DECLARE)
#undef FIXTURE_CONFIG_DECLARE
};
