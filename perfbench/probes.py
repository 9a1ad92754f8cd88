"""The layer boundaries a traced run records, and the per-layer metrics.

Each probe wraps one public entry point of a layer.  A span's self
time is charged to the metric its span name maps to in ``SPAN_METRICS``;
plain event counts land under their own metric name.  Every per-layer
metric in ``BENCHMARK.json`` is either a span metric, a count, or one of
the runtime metrics ``run.py`` takes from outside the program
(``gc.*``, ``trace.*``).
"""

from __future__ import annotations

from tracer import Probe


def _routed(args, kwargs, result):
    return {"bgp.prefixes_routed": len(result)}


def _addresses(args, kwargs, result):
    return {"core.addresses_mapped": len(args[1].addresses)}


def _pairs(args, kwargs, result):
    return {"rpki.pairs_validated": len(args[1])}


def _wire(args, kwargs, result):
    return {"exec.wire_bytes": len(result)}


PROBES = (
    # world build: web, crypto, rpki, bgp
    Probe("repro.web.ecosystem:WebEcosystem.build", "web.build"),
    Probe("repro.web.alexa:AlexaRanking.generate", "web.ranking"),
    Probe("repro.web.adoption:AdoptionModel.build", "web.adoption"),
    Probe("repro.web.hosting:HostingModel.build", "web.hosting"),
    Probe("repro.crypto.rsa:generate_keypair", "crypto.keygen"),
    Probe("repro.crypto.rsa:sign", "crypto.sign", calls="crypto.sign_calls"),
    Probe("repro.rpki.validator:RelyingParty.validate", "rpki.rp_validate"),
    Probe("repro.bgp.propagation:PropagationEngine.propagate",
          "bgp.propagate", calls="bgp.propagate_calls", tally=_routed),
    Probe("repro.bgp.collector:RouteCollector.collect", "bgp.collect"),
    Probe("repro.bgp.hijack:HijackScenario.run", "bgp.hijack",
          calls="bgp.hijack_runs"),
    # funnel: core, dns, net, rpki
    Probe("repro.core.pipeline:MeasurementStudy.run", "core.run"),
    Probe("repro.core.dns_mapping:measure_name", "dns.measure",
          calls="dns.names"),
    Probe("repro.dns.namespace:Namespace.lookup", None, "dns.lookups"),
    Probe("repro.core.prefix_mapping:map_addresses", "core.prefix_map",
          tally=_addresses),
    Probe("repro.core.rpki_validation:validate_pairs", "rpki.validate_pairs",
          tally=_pairs),
    Probe("repro.core.pipeline:accumulate_measurement", "core.accumulate"),
    Probe("repro.net.trie:PrefixTrie.covering", None, "net.trie_lookups"),
    Probe("repro.net.trie:PrefixTrie.lookup_longest", None,
          "net.trie_lookups"),
    Probe("repro.net.trie:PrefixTrie.lookup_exact", None, "net.trie_lookups"),
    Probe("repro.net.trie:PrefixTrie.insert", None, "net.trie_inserts"),
    Probe("repro.rpki.vrp:ValidatedPayloads.validate_origin", None,
          "rpki.validate_origin_calls"),
    # obs: registry name lookups, label resolution, spans
    Probe("repro.obs.metrics:MetricsRegistry.counter", "obs.lookup",
          calls="obs.registry_lookups"),
    Probe("repro.obs.metrics:MetricsRegistry.gauge", "obs.lookup",
          calls="obs.registry_lookups"),
    Probe("repro.obs.metrics:MetricsRegistry.histogram", "obs.lookup",
          calls="obs.registry_lookups"),
    Probe("repro.obs.metrics:_Metric.labels", "obs.lookup",
          calls="obs.labels_calls"),
    Probe("repro.obs.metrics:Histogram.labels", "obs.lookup",
          calls="obs.labels_calls"),
    Probe("repro.obs.tracing:TraceCollector.span", None, "obs.spans_recorded"),
    # exec: sharding, wire codec, dispatch
    Probe("repro.exec.executor:execute_study", "exec.execute"),
    Probe("repro.exec.scheduler:WorkerScheduler.run", "exec.dispatch"),
    Probe("repro.exec.jobs:encode_frame", "exec.encode", tally=_wire),
    Probe("repro.exec.jobs:JobResult.from_outcome", "exec.encode"),
    Probe("repro.exec.jobs:decode_frames", "exec.decode"),
    Probe("repro.exec.jobs:JobResult.to_outcome", "exec.decode"),
    Probe("selectors:DefaultSelector.select", "exec.wait"),
    # rov
    Probe("repro.rov.experiment:RovExperimentRunner.run", "rov.experiment"),
    Probe("repro.rov.whatif:WhatIfEngine.run_futures", "rov.whatif"),
    # analysis: the figure and table inputs `ripki run` renders
    Probe("repro.core.reports:pipeline_statistics", "analysis.figures"),
    Probe("repro.core.reports:figure1_www_overlap", "analysis.figures"),
    Probe("repro.core.reports:figure2_rpki_outcome", "analysis.figures"),
    Probe("repro.core.reports:figure3_cdn_popularity", "analysis.figures"),
    Probe("repro.core.reports:figure4_rpki_cdn", "analysis.figures"),
    Probe("repro.core.reports:table1_top_covered", "analysis.figures"),
    Probe("repro.core.reports:render_table1", "analysis.figures"),
    Probe("repro.core.reports:cdn_as_report", "analysis.figures"),
    Probe("repro.web.httparchive:HTTPArchiveClassifier.classify_all",
          "analysis.figures"),
)

# Forked exec workers start here; the probe makes them report home.
CHILD_ENTRY = "repro.exec.scheduler:connection_worker"

# Span name -> per-layer metric that receives its self time.
SPAN_METRICS = {
    "web.build": "web.other_s",
    "web.ranking": "web.ranking_s",
    "web.adoption": "web.adoption_s",
    "web.hosting": "web.hosting_s",
    "crypto.keygen": "crypto.keygen_s",
    "crypto.sign": "crypto.sign_s",
    "rpki.rp_validate": "rpki.rp_validate_s",
    "bgp.propagate": "bgp.propagate_s",
    "bgp.collect": "bgp.collect_s",
    "bgp.hijack": "bgp.hijack_s",
    "core.run": "core.run_s",
    "dns.measure": "dns.measure_s",
    "core.prefix_map": "core.prefix_map_s",
    "rpki.validate_pairs": "rpki.validate_pairs_s",
    "core.accumulate": "core.accumulate_s",
    "obs.lookup": "obs.lookup_s",
    "exec.execute": "exec.merge_s",
    "exec.dispatch": "exec.dispatch_s",
    "exec.encode": "exec.encode_s",
    "exec.decode": "exec.decode_s",
    "exec.wait": "exec.parent_wait_s",
    "rov.experiment": "rov.experiment_s",
    "rov.whatif": "rov.whatif_s",
    "analysis.figures": "analysis.figures_s",
}

# Counts recorded by probes, by the scheduler report and by run.py.
COUNT_METRICS = (
    "crypto.sign_calls",
    "bgp.propagate_calls",
    "bgp.prefixes_routed",
    "bgp.hijack_runs",
    "dns.names",
    "dns.lookups",
    "core.addresses_mapped",
    "net.trie_lookups",
    "net.trie_inserts",
    "rpki.pairs_validated",
    "rpki.validate_origin_calls",
    "obs.registry_lookups",
    "obs.labels_calls",
    "obs.spans_recorded",
    "exec.shards",
    "exec.wire_bytes",
    "exec.redispatched",
    "exec.stolen",
)

# Counts that every funnel pass over one world must repeat exactly;
# ``dns.lookups`` drops if a resolver answer cache outlives its pass.
PASS_INVARIANTS = (
    "dns.names", "dns.lookups", "net.trie_lookups", "rpki.pairs_validated",
)
