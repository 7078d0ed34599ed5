"""Time-triggered TSN scheduling toolkit and deterministic simulator.

Builds ground scheduling constraints for periodic streams on switched
Ethernet, solves offset tables with an external constraint solver or a
backjumping heuristic, synthesizes deployment artifacts (per-stream shaper
offset tables and per-port gate control lists), and replays them through
deterministic egress pipelines under normal and anomalous traffic.
"""

__version__ = "0.1.0"
