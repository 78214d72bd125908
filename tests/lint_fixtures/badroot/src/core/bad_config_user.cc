// Config-knob consumer for the R12 fixtures: `dimms` is read (no R12
// finding), `writeOnlyKnob` is only ever assigned, and `deadKnob` is
// never touched — both seeded violations anchor on src/sim/config.hh.
#include "sim/config.hh"

unsigned long
readKnobs(const FixtureParams &p)
{
    return p.dimms;
}

void
setKnob(FixtureParams &p)
{
    p.writeOnlyKnob = 9;
}
