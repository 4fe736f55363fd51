"""Default resource ceilings for the exhaustive search routines.

Every enumeration in the package is gated by one of these knobs, the
classification of the admissibility pool included; callers can raise them
explicitly, and the CLI reads ``ITL_MAX_ATOMS`` / ``ITL_MAX_WORLDS`` when no
flag is given.
"""

# Upper bound on the number of independent Boolean atoms a routine may
# enumerate over (2**MAX_ATOMS assignments): valuation bits n*W in frame
# checks, and the atom set of a reduced normal form.
DEFAULT_MAX_ATOMS = 20

# Upper bound on window width for the uniform decision procedure.
DEFAULT_MAX_WORLDS = 12

# Valuation batches are processed in chunks of 2**CHUNK_BITS: 2**16
# valuations are 1024 packed 64-bit words per world.
DEFAULT_CHUNK_BITS = 16

# Python's default limit on the digits of an integer it prints: a count or
# bound past it is reported without its digits.
MAX_PRINTED_DIGITS = 4300


class ResourceCapError(RuntimeError):
    """An enumeration would exceed its configured ceiling."""
