"""The canonical assignment scenario, calibrated.

Every constant of the EduWRENCH ``workflow_co2`` module that the paper
states is used verbatim: a Montage instance of **738 tasks / 7.5 GB**, a
**64-node** local cluster powered at **291 gCO2e/kWh** with **seven
p-states**, a **3-minute** execution-time bound in Tab-1, and in Tab-2
**16 cloud VM instances** on a green source plus **12 local nodes at the
lowest p-state** behind a limited-bandwidth link.

The remaining free parameters (flop counts, power curves, link bandwidth,
VM speed) are calibrated so the *qualitative* results match the
assignment's: the combined power-off + downclock heuristic beats either
lever alone under the bound; all-cloud is greener but slower than
all-local; and mixed per-level placements beat both pure options.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.wrench.network import Link
from repro.wrench.platform import CLOUD, LOCAL, Platform, make_cloud_site, make_cluster_site
from repro.wrench.power import PowerModel
from repro.wrench.simulation import SimulationResult, simulate
from repro.wrench.workflow import Workflow, montage_workflow

__all__ = ["AssignmentScenario", "DEFAULT_SCENARIO"]


@dataclass(frozen=True)
class AssignmentScenario:
    """All parameters of the carbon-footprint assignment."""

    # workflow (defaults give the paper's 738-task / 7.5 GB Montage)
    gflop_scale: float = 50.0
    workflow_seed: int = 7
    n_projections: int = 182
    n_difffits: int = 368

    # local cluster (Tab 1)
    max_nodes: int = 64
    n_pstates: int = 7
    cluster_carbon_intensity: float = 291.0  # gCO2e/kWh, the paper's plant
    base_speed: float = 100e9                # flop/s at the highest p-state
    idle_watts: float = 30.0
    dynamic_watts: float = 170.0

    # Tab-1 constraint: "execute the workflow in under 3 minutes"
    time_bound: float = 180.0

    # Tab 2: cloud + reduced local cluster
    tab2_local_nodes: int = 12
    tab2_local_pstate: int = 0  # lowest p-state
    cloud_vms: int = 16
    vm_speed: float = 30e9
    vm_busy_watts: float = 120.0
    vm_idle_watts: float = 50.0
    cloud_carbon_intensity: float = 10.0  # green source
    link_bandwidth: float = 50e6          # the "limited bandwidth" WAN link
    link_latency: float = 0.05

    @cached_property
    def power_model(self) -> PowerModel:
        """The cluster's DVFS parameter set."""
        return PowerModel(
            base_speed=self.base_speed,
            idle_watts=self.idle_watts,
            dynamic_watts=self.dynamic_watts,
            n_pstates=self.n_pstates,
        )

    @cached_property
    def workflow(self) -> Workflow:
        """The Montage-738 instance (cached; treat as immutable)."""
        return montage_workflow(
            n_projections=self.n_projections,
            n_difffits=self.n_difffits,
            gflop_scale=self.gflop_scale,
            seed=self.workflow_seed,
        )

    @property
    def highest_pstate(self) -> int:
        """Index of the fastest p-state (the paper's 'highest')."""
        return self.n_pstates - 1

    # -- platform builders ---------------------------------------------------------

    def tab1_platform(self, n_nodes: int, pstate: int) -> Platform:
        """Tab-1: cluster only; *n_nodes* powered on, all at *pstate*."""
        sites = {
            LOCAL: make_cluster_site(
                n_nodes,
                pstate,
                power_model=self.power_model,
                carbon_intensity=self.cluster_carbon_intensity,
            )
        }
        return Platform(sites=sites, link=Link())

    def tab2_platform(self) -> Platform:
        """Tab-2: 12 local nodes at the lowest p-state + 16 green VMs."""
        sites = {
            LOCAL: make_cluster_site(
                self.tab2_local_nodes,
                self.tab2_local_pstate,
                power_model=self.power_model,
                carbon_intensity=self.cluster_carbon_intensity,
            ),
            CLOUD: make_cloud_site(
                self.cloud_vms,
                vm_speed=self.vm_speed,
                vm_busy_watts=self.vm_busy_watts,
                vm_idle_watts=self.vm_idle_watts,
                carbon_intensity=self.cloud_carbon_intensity,
            ),
        }
        return Platform(
            sites=sites,
            link=Link(bandwidth=self.link_bandwidth, latency=self.link_latency),
        )

    # -- one-shot simulations -----------------------------------------------------------

    def simulate_tab1(self, n_nodes: int, pstate: int) -> SimulationResult:
        """Simulate the Tab-1 cluster-only execution."""
        return simulate(self.workflow, self.tab1_platform(n_nodes, pstate))

    def simulate_tab2(self, placement: dict[str, str]) -> SimulationResult:
        """Simulate a Tab-2 cluster+cloud execution under *placement*."""
        return simulate(self.workflow, self.tab2_platform(), placement)


#: the scenario every benchmark and example uses
DEFAULT_SCENARIO = AssignmentScenario()
