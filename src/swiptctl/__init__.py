"""Delay-optimal control stack for full-duplex SWIPT-MIMO sensor networks.

Subpackages / modules:

* ``channel``   -- imperfect-CSI MIMO physical layer (channel draws, ZF
  uplink and MRT downlink SINR, harvesting, rates)
* ``dynamics``  -- Poisson arrivals, the per-user queue / energy-buffer
  action table and the controlled transition kernel
* ``pomdp``     -- finite POMDP machinery (model, bound pairs, HSVI)
* ``control``   -- power-weighted stage costs and the two-layer
  beamforming / antenna-selection solve
* ``scenario``  -- scenario configuration and compilation into POMDP models
* ``harness``   -- Monte Carlo rollouts, baseline policies and the
  figure sweeps
* ``cli``       -- command line entry point
"""

__version__ = "0.1.0"
