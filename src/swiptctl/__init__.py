"""Delay-optimal control stack for full-duplex SWIPT-MIMO sensor networks.

Subpackages / modules:

* ``channel``   -- imperfect-CSI MIMO physical layer (ZF, SINR, harvesting,
  closed-form SINR densities)
* ``dynamics``  -- data-queue / energy-buffer recursions and the controlled
  transition kernel
* ``pomdp``     -- finite POMDP machinery (beliefs, bound pairs, HSVI)
* ``control``   -- Lagrangian stage costs, multiplier adaptation and the
  two-layer beamforming / antenna-selection solve
* ``scenario``  -- scenario configuration and compilation into POMDP models
* ``harness``   -- Monte Carlo rollouts, baseline policies and the
  figure sweeps
* ``cli``       -- command line entry point
"""

__version__ = "0.1.0"
