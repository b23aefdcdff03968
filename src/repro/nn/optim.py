"""Optimizers and learning-rate schedules.

The paper trains on-device models with SGD (lr 0.01, optional weight decay
5e-4) and the server-side generator with Adam (lr 0.001), and reduces the
server learning rates by a factor of 0.3 at 1/2 and 3/4 of the distillation
iterations.  All of those pieces are implemented here.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "LRScheduler", "MultiStepLR"]


class Optimizer:
    """Base optimizer: holds a parameter list and a mutable learning rate."""

    def __init__(self, parameters: Iterable[Tensor], lr: float) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)
        self._scratch: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def _scratch_for(self, index: int, param: Tensor) -> np.ndarray:
        """Per-parameter scratch buffer for in-place update arithmetic.

        Allocated lazily and reused across steps so the hot loop performs no
        allocations; reallocated if the parameter was swapped for one of a
        different shape or dtype (``load_state_dict`` keeps both stable).
        """
        scratch = self._scratch[index]
        if (scratch is None or scratch.shape != param.data.shape
                or scratch.dtype != param.data.dtype):
            scratch = np.empty_like(param.data)
            self._scratch[index] = scratch
        return scratch

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear gradients of all managed parameters.

        ``set_to_none=False`` keeps each parameter's grad buffer and zeroes
        it in place, so steady-state training steps allocate nothing.
        """
        for param in self.parameters:
            param.zero_grad(set_to_none=set_to_none)

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay.

    Parameters
    ----------
    parameters:
        Iterable of tensors to update.
    lr:
        Learning rate.
    momentum:
        Classical momentum coefficient (0 disables the velocity buffer).
    weight_decay:
        L2 penalty added to the gradient (`grad + weight_decay * param`).
    """

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        if momentum < 0:
            raise ValueError("momentum must be non-negative")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        # In-place formulation of ``param -= lr * (momentum*v + grad + wd*param)``.
        # Every ufunc below computes the same ufunc as the allocating version
        # (scalar*array multiplies and array+array adds commute bitwise under
        # IEEE-754), so the trajectory is bit-identical while the hot loop
        # performs zero allocations after the first step.
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            scratch = self._scratch_for(index, param)
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=scratch)
                np.add(scratch, grad, out=scratch)
                grad = scratch
            if self.momentum:
                velocity = self._velocity[index]
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                    self._velocity[index] = velocity
                np.multiply(velocity, self.momentum, out=velocity)
                np.add(velocity, grad, out=velocity)
                grad = velocity
            np.multiply(grad, self.lr, out=scratch)
            np.subtract(param.data, scratch, out=param.data)

    def velocity_state(self) -> List[np.ndarray]:
        """Momentum buffers as plain arrays (zeros for never-stepped parameters).

        Representing an uninitialized buffer as zeros is bit-exact: the next
        ``step`` computes ``momentum * 0 + grad == grad`` either way.  Used
        by the server update's Phase-2 task to hand each device's momentum
        back to the driver.
        Buffers are copied: ``step`` updates them in place, so handing out
        the live arrays would let a later step mutate a shipped snapshot.
        """
        return [np.zeros_like(param.data) if velocity is None else velocity.copy()
                for velocity, param in zip(self._velocity, self.parameters)]

    def load_velocity_state(self, buffers: Sequence[np.ndarray]) -> None:
        """Install momentum buffers previously produced by :meth:`velocity_state`.

        Each buffer keeps its parameter's dtype (a float32 cohort must not
        silently upcast its momentum) and is copied so in-place ``step``
        updates never write through to the caller's arrays.
        """
        buffers = list(buffers)
        if len(buffers) != len(self.parameters):
            raise ValueError(
                f"expected {len(self.parameters)} momentum buffers, got {len(buffers)}")
        self._velocity = [np.array(buffer, dtype=param.data.dtype, copy=True)
                          for buffer, param in zip(buffers, self.parameters)]


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba), used for the server-side generator."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.001,
                 betas: Sequence[float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._scratch2: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def _scratch2_for(self, index: int, param: Tensor) -> np.ndarray:
        scratch = self._scratch2[index]
        if (scratch is None or scratch.shape != param.data.shape
                or scratch.dtype != param.data.dtype):
            scratch = np.empty_like(param.data)
            self._scratch2[index] = scratch
        return scratch

    def step(self) -> None:
        # In-place Adam with two reusable scratch buffers per parameter.  The
        # ufunc sequence mirrors the allocating formulation term by term
        # (commuting only scalar multiplies and adds, which are bitwise
        # symmetric under IEEE-754), so trajectories are bit-identical.
        self._step += 1
        correction1 = 1 - self.beta1 ** self._step
        correction2 = 1 - self.beta2 ** self._step
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            scratch = self._scratch_for(index, param)
            extra = self._scratch2_for(index, param)
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=extra)
                np.add(extra, grad, out=extra)
                grad = extra
            m, v = self._m[index], self._v[index]
            if m is None:
                m = self._m[index] = np.zeros_like(param.data)
                v = self._v[index] = np.zeros_like(param.data)
            np.multiply(m, self.beta1, out=m)
            np.multiply(grad, 1 - self.beta1, out=scratch)
            np.add(m, scratch, out=m)
            np.multiply(v, self.beta2, out=v)
            np.power(grad, 2, out=scratch)
            np.multiply(scratch, 1 - self.beta2, out=scratch)
            np.add(v, scratch, out=v)
            # extra <- lr * m_hat, scratch <- sqrt(v_hat) + eps, then update.
            np.divide(m, correction1, out=extra)
            np.multiply(extra, self.lr, out=extra)
            np.divide(v, correction2, out=scratch)
            np.sqrt(scratch, out=scratch)
            np.add(scratch, self.eps, out=scratch)
            np.divide(extra, scratch, out=extra)
            np.subtract(param.data, extra, out=param.data)


class LRScheduler:
    """Base class for learning-rate schedules attached to an optimizer."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.last_step = 0

    def get_lr(self, step: int) -> float:
        raise NotImplementedError

    def step(self) -> float:
        """Advance the schedule by one step and apply the new learning rate."""
        self.last_step += 1
        new_lr = self.get_lr(self.last_step)
        self.optimizer.lr = new_lr
        return new_lr


class MultiStepLR(LRScheduler):
    """Multiply the learning rate by ``gamma`` at each milestone step.

    The paper's server schedule — decay by 0.3 at 1/2 and 3/4 of the total
    distillation iterations — corresponds to
    ``MultiStepLR(opt, milestones=[n//2, 3*n//4], gamma=0.3)``.
    """

    def __init__(self, optimizer: Optimizer, milestones: Sequence[int], gamma: float = 0.3) -> None:
        super().__init__(optimizer)
        self.milestones = sorted(int(m) for m in milestones)
        self.gamma = gamma

    def get_lr(self, step: int) -> float:
        passed = sum(1 for milestone in self.milestones if step >= milestone)
        return self.base_lr * (self.gamma ** passed)
