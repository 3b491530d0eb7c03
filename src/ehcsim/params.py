"""Fixed parameters of the simulated policies and of the MIN oracle's
analyses, shared with the native kernel.

``_kernels._header()`` turns every upper-case integer defined here into a
``#define`` for ``_kernel.c`` (one of 2^63 or more with a ``ULL`` suffix),
so the Python code and the kernel read one value each; the header's buffer
layouts stay in ``_kernels``. The modules that use these (``engine``,
``trace``, ``policies``, ``sampler``, ``belady``, ``minoracle``) import
them from here.
"""

from __future__ import annotations

#: The built-in policies, in the order the CLI lists them.
POLICY_NAMES = ("lru", "srrip", "brrip", "drrip", "ship", "hawkeye", "ehc")

# --- per-block state ---
RRPV_MAX = 7  # 3-bit re-reference prediction value
EFH_MAX = 7   # 3-bit expected-further-hits counter

#: Distinguished choose_victim outcome: skip insertion entirely.
BYPASS = -1

# --- BRRIP bimodal insertion: counter-mode splitmix64 ---
SM_GAMMA = 0x9E3779B97F4A7C15
SM_MIX1 = 0xBF58476D1CE4E5B9
SM_MIX2 = 0x94D049BB133111EB
BRRIP_LONG_ODDS = 32  # long (max-1) insertion with probability 1/32

# --- DRRIP set dueling ---
PSEL_BITS = 10
PSEL_MAX = (1 << PSEL_BITS) - 1
PSEL_INIT = 1 << (PSEL_BITS - 1)
LEADER_PERIOD = 64
SRRIP_LEADER_OFFSET = 0
BRRIP_LEADER_OFFSET = 33

# --- SHiP signature history counters ---
SHCT_BITS = 14
SHCT_SIZE = 1 << SHCT_BITS
SHCT_MAX = 7

# --- sampled-set MIN emulation and its predictor tables ---
SAMPLE_PERIOD = 64
WINDOW_SLOTS_PER_WAY = 8  # recording 8x associativity suffices

PC_TABLE_BITS = 13
PC_TABLE_SIZE = 1 << PC_TABLE_BITS
PC_COUNTER_MAX = 7
PC_COUNTER_INIT = 4
PC_FRIENDLY_THRESHOLD = 4

REGION_SHIFT = 17  # 128 KB regions
REGION_TABLE_BITS = 10
REGION_TABLE_SIZE = 1 << REGION_TABLE_BITS
REGION_RING_SLOTS = 4
DEFAULT_EXPECTED_HITS = 1

# --- the offline MIN oracle and its analyses ---
#: Sentinel next-use position for blocks never referenced again ("infinity").
NO_NEXT_USE = 1 << 62
ERROR_BUCKETS = 5  # |actual - predicted| hits of 0, 1, 2, 3, >=4
