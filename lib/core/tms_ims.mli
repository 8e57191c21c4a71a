(** Thread-sensitive iterative modulo scheduling.

    Section 4.1 claims TMS "is not tied to any existing modulo scheduling
    algorithm": the Figure 3 structure — the [F(II, C_delay)] outer search
    plus the C1/C2 issue-slot admission — only needs a base scheduler that
    places one instruction at a time. This module instantiates it over
    {!Ts_sms.Ims} (Rau's iterative modulo scheduling) instead of SMS,
    substantiating the claim; the ablation bench compares the two
    instantiations. Only the placement engine lives here: the grid walk
    is {!Tms.search}, shared with {!Tms.schedule}. *)

type result = Tms.result = {
  kernel : Ts_modsched.Kernel.t;
  mii : int;
  c_delay_threshold : int;
  achieved_c_delay : int;
  p_max : float;
  misspec : float;
  f_min : float;
  attempts : int;
  fell_back : bool;
}

val schedule :
  ?trace:Ts_obs.Trace.t ->
  ?p_max:float ->
  ?max_ii:int ->
  ?point_memo:Tms.point_memo ->
  ?placement:Ts_isa.Placement.policy ->
  params:Ts_isa.Spmt_params.t ->
  Ts_ddg.Ddg.t ->
  result
(** TMS-over-IMS. Falls back to plain IMS if the grid is exhausted.
    Each grid point is one IMS pass under {!Tms.admissible}, then a
    post-check that rejects the point when IMS eviction broke an
    earlier C1 or C2 decision; IMS gives no reject diagnosis, so failed
    attempts carry the reason ["placement-failed"].

    Everything else is {!Tms.schedule}'s: [trace] receives the same
    ["tms.search"] span and ["tms.attempt"]/["tms.fallback"]/
    ["tms.result"] events, with [base = "ims"]; the search counts on
    the same [tms.attempts], [tms.schedules], [tms.fallbacks] and
    [tms.attempt_ms] metrics and runs under the [tms_ims.search]
    {!Ts_obs.Prof} span. [point_memo] warm-starts the grid walk
    ({!Tms.point_memo}); providers must key IMS-engine outcomes
    separately from swing-engine ones — the two engines disagree at the
    same grid point. *)
