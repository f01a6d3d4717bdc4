(** Fault-aware session recovery.

    The detour-routing counterpart of {!Nocplan_core.Replan}: when
    routers or links die mid-session, [after] keeps the finished
    tests, voids the in-flight ones, prices the remainder over
    {!Detour} routes on the degraded system — and, unlike the plain
    replanner, {e abandons} modules the fault set leaves without any
    test path instead of raising [Unschedulable].  The fraction still
    testable is the availability figure the sweeps plot. *)

type outcome = {
  kept : Nocplan_core.Schedule.entry list;
      (** finished strictly before the event *)
  voided : Nocplan_core.Schedule.entry list;  (** in flight; discarded *)
  abandoned : int list;
      (** module ids with no test path on the degraded NoC — sorted,
          {e cumulative} (includes the ids passed in) *)
  replanned : Nocplan_core.Schedule.entry list;
  makespan : int;  (** max finish over kept + replanned *)
  availability : float;
      (** (modules - abandoned) / modules, in [0, 1] *)
}

val after :
  ?policy:Nocplan_core.Scheduler.policy ->
  ?application:Nocplan_proc.Processor.application ->
  ?power_limit:float option ->
  ?abandoned:int list ->
  ?access:Nocplan_core.Test_access.table ->
  reuse:int ->
  at:int ->
  faults:Detour.fault_set ->
  Nocplan_core.System.t ->
  Nocplan_core.Schedule.t ->
  outcome
(** [after ~reuse ~at ~faults system schedule] reacts to [faults]
    materializing at instant [at] of [schedule].  Entries finished by
    [at] are kept (their processors count as pretested); in-flight and
    future entries are voided; remaining modules are re-planned from
    [at] on the degraded system with a detour-routed access table.  A
    remaining module none of whose endpoint pairs is feasible over
    healthy routes — directly, or transitively because every usable
    source/sink processor is itself untestable — is abandoned rather
    than scheduled.  [abandoned] carries the ids already given up in
    earlier events of the same campaign; they stay abandoned and are
    excluded from coverage.

    [access] is a table to derive the degraded one from, for
    [application] and [system] under a subset of the degraded system's
    failed links: the healthy XY table that
    {!Nocplan_core.Scheduler.run} takes, or the table an earlier
    {!after_with_table} of the same campaign returned.  The degraded
    table is then {!Nocplan_core.Test_access.table_degrade}d from it,
    which reroutes and reprices only the legs the {e new} faults cross.
    A table priced under routes other than XY or {!Detour} over a
    subset of [faults] breaks [table_degrade]'s contract on the route,
    so do not pass one.  A table for another application, or one
    {!Nocplan_core.Test_access.degradable} rejects (another system or
    placement, or a failed link [faults] does not block), is ignored
    and the degraded table is built from scratch — the outcome is the
    same either way.

    Emits a ["fault.replan"] trace span (the detour table build inside
    adds its own ["fault.detour"] span, the access table its
    ["access.table"] span, which contains the detour BFS runs).

    @raise Invalid_argument on a negative [at] or out-of-range
    [reuse].
    @raise Nocplan_core.Scheduler.Unschedulable only through the power
    limit: path existence is prefiltered, but a cap no feasible pair
    fits under still surfaces. *)

val after_with_table :
  ?policy:Nocplan_core.Scheduler.policy ->
  ?application:Nocplan_proc.Processor.application ->
  ?power_limit:float option ->
  ?abandoned:int list ->
  ?access:Nocplan_core.Test_access.table ->
  reuse:int ->
  at:int ->
  faults:Detour.fault_set ->
  Nocplan_core.System.t ->
  Nocplan_core.Schedule.t ->
  outcome * Nocplan_core.Test_access.table
(** {!after}, also returning the degraded access table the replan was
    priced on.  Fault sets within one campaign are cumulative, so that
    table is a valid [access] for the campaign's next event: each
    step's derivation then only pays for the faults that step adds
    ({!Injector} chains its steps this way).  The table stays out of
    {!outcome}, which holds plain data only and compares with [=]. *)

val availability_of : Nocplan_core.System.t -> abandoned:int list -> float

type violation =
  | Coverage of int
      (** non-abandoned module not tested exactly once across
          kept + replanned *)
  | Abandoned_but_tested of int
  | Too_early of Nocplan_core.Schedule.entry
  | Entry_invalid of Nocplan_core.Schedule.entry
      (** infeasible or mispriced under the detour-routed table *)
  | Faulty_link_used of {
      entry : Nocplan_core.Schedule.entry;
      link : Nocplan_noc.Link.t;
    }  (** a replanned test touches a blocked channel *)
  | Endpoint_conflict of Nocplan_core.Resource.endpoint
  | Link_conflict of Nocplan_noc.Link.t
  | Processor_not_ready of {
      user : Nocplan_core.Schedule.entry;
      processor_id : int;
    }

val validate :
  ?application:Nocplan_proc.Processor.application ->
  reuse:int ->
  at:int ->
  faults:Detour.fault_set ->
  Nocplan_core.System.t ->
  outcome ->
  (unit, violation list) result
(** Re-derive the detour table and degraded system from scratch and
    check the outcome against them.  This builds its own access table
    with {!Nocplan_core.Test_access.table} instead of deriving one: it
    is an independent check of {!after}, so it must not share the
    derivation it is checking.  The checks: abandoned modules untested, the
    rest covered exactly once; replanned entries start at or after
    [at], are feasible and correctly priced under detour routing, and
    touch no blocked channel; no endpoint or channel double-booking
    among replanned entries; processor endpoints only used after their
    own test.  Shares no state with {!after}. *)

val pp_outcome : outcome Fmt.t
val pp_violation : violation Fmt.t
