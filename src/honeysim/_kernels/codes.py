"""Integer codes of the kernel arrays and raw events.

The world's IntEnums (NodeKind, NodeStatus, EventKind) take their
values from here, so a code means the same on both sides of the kernel
boundary. Campaign phases are used only inside the kernel. Event kinds
run 0..n-1 without gaps: world.py indexes a table by them.
"""

# Node kinds
DATABASE = 0
APPLICATION = 1
WEB = 2
HONEYPOT = 3

# Node statuses
RUNNING = 0
STOPPED = 1
COMPROMISED = 2
QUARANTINED = 3

# Campaign phases
RECON = 0
EXPLOIT = 1
LATERAL = 2
DORMANT = 3

# Event kinds
IDS_ALERT = 0
ANTI_MALWARE_ALERT = 1
UNAUTHORIZED_ACCESS = 2
HONEY_TOUCH = 3
DUMMY_FILE_ACCESS = 4
DUMMY_PROCESS_ALERT = 5
FILE_INTEGRITY_VIOLATION = 6
LOAD_SAMPLE = 7
LOG_LINE = 8
OPERATOR_REPLY = 9
