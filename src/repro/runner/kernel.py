"""The unified batch-kernel protocol.

Every vectorised evaluator in the repo -- the SCPG power model's
frequency axis, the sub-threshold model's supply axis, the technique
models' frequency axes, the gate-level simulator's input matrices --
reaches the runner through one protocol:

* :class:`Kernel` -- a stateless strategy registered per *context type*
  (model class, netlist module, ...).  ``applies(context)`` guards
  against subclassed or instance-patched contexts whose overrides a
  batch path would silently bypass; ``compile(context, library=None)``
  lowers the context once into a :class:`CompiledKernel`.
* :class:`CompiledKernel` -- the uniform callable the runner dispatches:
  ``compiled(points) -> list`` with one result per point and ``None``
  marking infeasible points.  Instances are picklable (the chunked
  pool executor ships them to worker processes), so kernels must hold no
  closures -- all state lives in the compiled context.
* :func:`register_kernel` / :func:`kernel_for` / :func:`compile_kernel`
  -- the exact-type registry.  Model modules register their kernel at
  import time; callers ask ``compile_kernel(context)`` and fall back to
  the point-at-a-time path on ``None``.

``evaluate_grid(..., kernel=...)`` and ``Runner.run(..., kernel=...)``
accept a compiled kernel directly.

Registered kernels: each model module self-registers at import time --
e.g. :class:`repro.scpg.power_model.ScpgPowerKernel` binds to
:class:`~repro.scpg.power_model.ScpgPowerModel` and batches a whole
frequency axis through ``_freq_batch`` (results identical to
point-at-a-time ``power`` calls).
"""

from __future__ import annotations

from ..errors import RunnerError

#: Exact-type registry: ``type(context) -> Kernel`` (subclasses do NOT
#: inherit a registration -- their overrides must win, so they fall back
#: to the point-at-a-time path).
_REGISTRY = {}


class Kernel:
    """One batch evaluation strategy for one context type.

    Subclasses implement :meth:`evaluate` (and usually tighten
    :meth:`applies`); they carry no per-context state, so a single
    instance serves every context of the registered type.
    """

    #: Short name for journals and traces.
    name = "kernel"

    def applies(self, context):
        """Whether the batch path is safe for this exact ``context``.

        Must reject anything whose point-at-a-time method may have been
        overridden (subclass instances, monkeypatched attributes) --
        a kernel that bypassed the override would be silently wrong.
        """
        return True

    def evaluate(self, context, points, library=None):
        """Evaluate ``points`` against ``context``; one result per
        point, ``None`` for infeasible points."""
        raise NotImplementedError

    def compile(self, context, library=None):
        """Lower ``context`` into a picklable ``callable(points)``.

        The default wraps the context as-is; kernels with a real
        lowering step (e.g. the gate-sim kernel's levelized schedule)
        override this to compile once and embed the compiled form.
        """
        if not self.applies(context):
            raise RunnerError(
                "kernel {!r} does not apply to {!r}".format(
                    self.name, context))
        return CompiledKernel(self, context, library)


class CompiledKernel:
    """A kernel bound to its compiled context: ``compiled(points)``.

    Picklable by construction (kernel instances are stateless
    module-level objects; the context must itself be picklable for the
    parallel chunked path, exactly as runner contexts always had to be).
    """

    __slots__ = ("kernel", "context", "library")

    def __init__(self, kernel, context, library=None):
        self.kernel = kernel
        self.context = context
        self.library = library

    @property
    def name(self):
        return self.kernel.name

    def __call__(self, points):
        return self.kernel.evaluate(self.context, points, self.library)

    def __getstate__(self):
        return (self.kernel, self.context, self.library)

    def __setstate__(self, state):
        self.kernel, self.context, self.library = state

    def __repr__(self):
        return "CompiledKernel({!r}, {!r})".format(
            self.kernel.name, type(self.context).__name__)


def register_kernel(context_type, kernel):
    """Register ``kernel`` for contexts of exactly ``context_type``."""
    if not isinstance(kernel, Kernel):
        raise RunnerError("register_kernel needs a Kernel instance")
    _REGISTRY[context_type] = kernel
    return kernel


def kernel_for(context):
    """The registered kernel applying to ``context``, or ``None``.

    Exact-type lookup plus the kernel's own ``applies`` guard: subclass
    instances and instance-patched contexts get ``None`` so callers keep
    the point-at-a-time path and the override stays honoured.
    """
    kernel = _REGISTRY.get(type(context))
    if kernel is None or not kernel.applies(context):
        return None
    return kernel


def compile_kernel(context, library=None):
    """``kernel_for(context).compile(...)`` -- or ``None`` when no
    registered kernel applies."""
    kernel = kernel_for(context)
    if kernel is None:
        return None
    return kernel.compile(context, library)
