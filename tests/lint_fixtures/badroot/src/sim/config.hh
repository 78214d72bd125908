#pragma once

// Fixture knob table, rows like the real config header's. `deadKnob`
// and `writeOnlyKnob` seed R12: nothing in src/ outside sim/config.*
// reads them (src/core/bad_config_user.cc only assigns the second).

#define FIXTURE_CONFIG(X)                                        \
    X(unsigned long, dimms, 4, "", "NVM DIMMs")                  \
    X(unsigned long, deadKnob, 1, "", "read nowhere")            \
    X(unsigned long, writeOnlyKnob, 0, "", "assigned, never read")

struct FixtureParams {
#define FIXTURE_CONFIG_DECLARE(type, member, def, unit, doc) \
    type member = def;
    FIXTURE_CONFIG(FIXTURE_CONFIG_DECLARE)
#undef FIXTURE_CONFIG_DECLARE
};
